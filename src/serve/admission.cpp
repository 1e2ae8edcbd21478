#include "serve/admission.hpp"

#include <string>

#include "telemetry/telemetry.hpp"

namespace hlsprof::serve {

const char* reject_name(Reject r) {
  switch (r) {
    case Reject::none: return "none";
    case Reject::queue_full: return "queue_full";
    case Reject::draining: return "draining";
  }
  return "?";
}

AdmissionQueue::AdmissionQueue(std::size_t capacity) : capacity_(capacity) {}

Reject AdmissionQueue::submit(Request request) {
  auto& reg = telemetry::Registry::global();
  Reject verdict = Reject::none;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.submitted;
    if (draining_) {
      verdict = Reject::draining;
      ++stats_.rejected_draining;
    } else if (queue_.size() >= capacity_) {
      verdict = Reject::queue_full;
      ++stats_.rejected_full;
    } else {
      ++stats_.admitted;
      queue_.push_back(std::move(request));
      stats_.queued = queue_.size();
    }
  }
  if (verdict == Reject::none) {
    cv_.notify_one();
  } else if (reg.enabled()) {
    reg.counter("serve.rejected").add(1);
    reg.counter(std::string("serve.rejected_") + reject_name(verdict)).add(1);
  }
  return verdict;
}

bool AdmissionQueue::pop(Request* out) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return !queue_.empty() || draining_; });
  if (queue_.empty()) return false;  // draining and empty
  *out = std::move(queue_.front());
  queue_.pop_front();
  ++stats_.started;
  stats_.queued = queue_.size();
  return true;
}

void AdmissionQueue::drain() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
  }
  cv_.notify_all();
}

bool AdmissionQueue::draining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

AdmissionQueue::Stats AdmissionQueue::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace hlsprof::serve
