// Admission control for the serving daemon: a bounded FIFO in front of
// the resident worker pool.
//
//  - Bounded: at most `capacity` requests may be waiting; one more is
//    rejected with Reject::queue_full (explicit backpressure — the client
//    is told, nothing is silently dropped).
//  - FIFO: requests pop in submission order.
//  - Draining: drain() atomically stops admission (further submits get
//    Reject::draining); consumers keep popping until the queue is empty,
//    then pop() returns false. Nothing admitted is ever lost.
//
// The queue is payload-agnostic (requests carry an opaque closure) so it
// unit-tests standalone; the server wires the closure to "run the batch
// and write the response".
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>

namespace hlsprof::serve {

enum class Reject {
  none = 0,    // admitted
  queue_full,  // `capacity` requests waiting already
  draining,    // drain() was called; no new admissions
};

/// Machine-readable rejection code ("queue_full", ...); "none" = admitted.
const char* reject_name(Reject r);

class AdmissionQueue {
 public:
  /// The opaque payload a dispatcher runs.
  using Request = std::function<void()>;

  struct Stats {
    std::uint64_t submitted = 0;  // all submit() calls
    std::uint64_t admitted = 0;
    std::uint64_t rejected_full = 0;
    std::uint64_t rejected_draining = 0;
    std::uint64_t started = 0;   // popped by a consumer
    std::size_t queued = 0;      // waiting right now
  };

  /// `capacity` = max requests waiting (admitted, not yet started). 0 =
  /// nothing may queue: a request is admitted only if a dispatcher picks
  /// it up before anything else is waiting — practically, almost
  /// everything rejects.
  explicit AdmissionQueue(std::size_t capacity);

  /// Try to admit. Returns Reject::none on success, otherwise the
  /// rejection reason.
  Reject submit(Request request);

  /// Pop the oldest request; blocks while the queue is empty and not
  /// draining. Returns false when draining and empty (consumer should
  /// exit).
  bool pop(Request* out);

  /// Stop admitting; wake blocked consumers so they can drain the
  /// remainder and exit. Idempotent.
  void drain();

  bool draining() const;
  Stats stats() const;

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Request> queue_;
  bool draining_ = false;
  Stats stats_;
};

}  // namespace hlsprof::serve
