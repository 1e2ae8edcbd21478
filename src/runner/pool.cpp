#include "runner/pool.hpp"

#include <algorithm>
#include <string>

#include "telemetry/telemetry.hpp"

namespace hlsprof::runner {

namespace {

/// Pool telemetry handles, resolved once per process.
struct PoolMetrics {
  telemetry::Counter& tasks;
  telemetry::Counter& busy_us;
  telemetry::Histogram& queue_wait_us;
  telemetry::Histogram& task_ms;
  telemetry::Gauge& in_flight;
  static PoolMetrics& get() {
    auto& reg = telemetry::Registry::global();
    static PoolMetrics m{
        reg.counter("runner.tasks"),
        reg.counter("runner.busy_us", "us"),
        reg.histogram("runner.queue_wait_us",
                      telemetry::exp_bounds(10.0, 4.0, 10), "us"),
        reg.histogram("runner.task_ms", telemetry::exp_bounds(0.5, 2.0, 14),
                      "ms"),
        reg.gauge("runner.jobs_in_flight", "jobs"),
    };
    return m;
  }
};

}  // namespace

Pool::Pool(int workers) {
  const int n = std::max(1, workers);
  threads_.reserve(std::size_t(n));
  for (int i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

Pool::~Pool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void Pool::submit(std::function<void()> task) {
  auto& reg = telemetry::Registry::global();
  Item item{std::move(task), reg.enabled() ? reg.now_us() : 0};
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back(std::move(item));
  }
  work_cv_.notify_one();
}

void Pool::wait() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

int Pool::resolve_workers(int requested) {
  if (requested > 0) return requested;
  if (requested < 0) return 1;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? int(hw) : 1;
}

void Pool::worker_loop(int index) {
  auto& reg = telemetry::Registry::global();
  if (reg.enabled()) {
    reg.bind_thread_track(
        reg.register_track("worker-" + std::to_string(index)));
  }
  for (;;) {
    Item item;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      item = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    const bool telemetry_on = reg.enabled();
    std::uint64_t t0 = 0;
    if (telemetry_on) {
      PoolMetrics& m = PoolMetrics::get();
      t0 = reg.now_us();
      if (item.enq_us != 0) {
        m.queue_wait_us.observe(double(t0 - item.enq_us));
      }
      m.in_flight.add(1.0);
    }
    item.task();
    if (telemetry_on) {
      PoolMetrics& m = PoolMetrics::get();
      const std::uint64_t dur = reg.now_us() - t0;
      m.tasks.add(1);
      m.busy_us.add(static_cast<long long>(dur));
      m.task_ms.observe(double(dur) / 1e3);
      m.in_flight.add(-1.0);
    }
    {
      std::unique_lock<std::mutex> lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace hlsprof::runner
