// Fixed-size worker pool behind the batch runner. Deliberately minimal:
// FIFO queue, submit/wait, clean shutdown in the destructor. Jobs are
// opaque thunks — exception capture and result routing are the Batch
// layer's responsibility (a worker never dies from a throwing job).
//
// Shutdown semantics: the destructor DRAINS — every task submitted
// before destruction runs to completion before the threads join (no task
// loss, no deadlock, even with a deep queue).
//
// When the telemetry registry is enabled the pool reports queue-wait and
// task-latency histograms, worker busy time, and a jobs-in-flight gauge,
// and binds each worker thread to its own span track ("worker-<i>").
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hlsprof::runner {

class Pool {
 public:
  /// `workers` < 1 is clamped to 1. Threads start immediately.
  explicit Pool(int workers);

  /// Drains: joins after every already-submitted task has run.
  ~Pool();

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// Enqueue a task. Tasks that throw terminate the process (std::thread
  /// noexcept boundary) — wrap fallible work before submitting.
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished executing.
  void wait();

  /// Pick a worker count: `requested` if > 0, the hardware concurrency
  /// (at least 1) for 0, and 1 for a negative request.
  static int resolve_workers(int requested);

 private:
  struct Item {
    std::function<void()> task;
    /// Telemetry enqueue stamp (µs since registry epoch); 0 = telemetry
    /// was disabled at submit time, skip the queue-wait observation.
    std::uint64_t enq_us = 0;
  };

  void worker_loop(int index);

  std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait for tasks
  std::condition_variable idle_cv_;   // wait() waits for drain
  std::deque<Item> queue_;
  int active_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace hlsprof::runner
