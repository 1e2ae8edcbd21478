// Observation interface between the simulator and the profiling unit.
// The simulator calls these hooks as the hardware signals the profiling
// unit snoops would toggle: thread state changes (semaphore & controller),
// stage activations (op execution), and Avalon memory requests with the
// pipeline stall each one caused (VLO overruns). A run without profiling
// passes no hooks, which also removes the tracer's bus traffic (paper §V-B
// measures exactly this delta).
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/types.hpp"

namespace hlsprof::sim {

/// The four per-thread states of the paper's Fig. 2 (2-bit encoding as in
/// §IV-B1).
enum class ThreadState : std::uint8_t {
  idle = 0,
  running = 1,
  critical = 2,
  spinning = 3,
};

/// The open sampling window a memory request or a compute span can count
/// into without a call: cycles [lo, end) and the window's per-thread
/// accumulators. The hooks' implementation keeps it current and caches a
/// window only while no sample in [lo, end) can close one, so `end` is
/// at most the high-water mark that closes the next window. lo == end
/// caches none.
struct SampleWindow {
  cycle_t lo = 0;
  cycle_t end = 0;
  /// Latest timestamp sampled so far.
  cycle_t high_water = 0;
  double* stall = nullptr;    // indexed by thread id
  double* int_ops = nullptr;  // null while compute events are off
  double* fp_ops = nullptr;   // null while compute events are off
  double* read = nullptr;     // bytes read
  double* written = nullptr;  // bytes written
};

class SimHooks {
 public:
  SimHooks() = default;
  // window_ points into the implementation's own accumulators.
  SimHooks(const SimHooks&) = delete;
  SimHooks& operator=(const SimHooks&) = delete;
  virtual ~SimHooks() = default;

  /// Thread `tid` entered `state` at cycle `t`. Calls arrive in
  /// non-decreasing `t` order per thread.
  virtual void on_state(thread_id_t tid, ThreadState state, cycle_t t) = 0;

  /// `int_ops`/`fp_ops` lane-operations executed by `tid` spread over
  /// [t0, t1). Batched (typically one call per loop execution or between
  /// memory operations) — the profiling unit's sampled counters only need
  /// window aggregates. Counts inline into the cached window when the
  /// span lies strictly inside it (so the mark stays below the next
  /// window close); any other span goes to on_compute. The inline sum is
  /// the expression on_compute's one-window case computes, so both paths
  /// give the same bits.
  void sample_compute(thread_id_t tid, long long int_ops, long long fp_ops,
                      cycle_t t0, cycle_t t1) {
    SampleWindow& w = window_;
    if (w.int_ops != nullptr && t0 >= w.lo && t0 < t1 && t1 < w.end)
        [[likely]] {
      const double span = double(t1 - t0);
      if (int_ops > 0) {
        w.int_ops[tid] += double(int_ops) * double(t1 - t0) / span;
      }
      if (fp_ops > 0) {
        w.fp_ops[tid] += double(fp_ops) * double(t1 - t0) / span;
      }
      w.high_water = std::max(w.high_water, t1);
      return;
    }
    on_compute(tid, int_ops, fp_ops, t0, t1);
  }

  /// Aggregate traffic synthesized by the fast-forward tier: the bytes
  /// `tid` would have moved across the skipped span [t0, t1), spread
  /// uniformly — the shape a steady-state phase has by definition. Only
  /// the approximate mode (SimParams::fast_forward) ever calls this;
  /// implementations that do not care can keep the no-op default.
  virtual void on_mem_span(thread_id_t tid, cycle_t t0, cycle_t t1,
                           std::uint64_t bytes_read,
                           std::uint64_t bytes_written) {
    (void)tid; (void)t0; (void)t1; (void)bytes_read; (void)bytes_written;
  }

  /// Aggregate stall synthesized by the fast-forward tier over [t0, t1).
  virtual void on_stall_span(thread_id_t tid, cycle_t t0, cycle_t t1,
                             cycle_t cycles) {
    (void)tid; (void)t0; (void)t1; (void)cycles;
  }

  /// End of simulation at cycle `t` (lets the tracer flush its buffers).
  virtual void on_finish(cycle_t t) = 0;

  /// One external-memory request of `tid`: `bytes` accepted by the Avalon
  /// interface at cycle `accepted` (request-side accounting; the paper
  /// accepts the small skew of not tracking responses, §IV-B2c), then,
  /// when the request overran the scheduler's assumed minimum latency, a
  /// pipeline stall of `stall` cycles from `expected` (0: no stall).
  /// Counts inline into the cached window when both timestamps fall in
  /// it; anything else (a window to open or close, a sample for an
  /// emitted window) goes to on_request.
  void sample_request(thread_id_t tid, cycle_t accepted, std::uint32_t bytes,
                      bool is_write, cycle_t expected, cycle_t stall) {
    SampleWindow& w = window_;
    const cycle_t first = stall > 0 ? std::min(accepted, expected) : accepted;
    const cycle_t last = stall > 0 ? std::max(accepted, expected) : accepted;
    if (first >= w.lo && last < w.end) [[likely]] {
      (is_write ? w.written : w.read)[tid] += double(bytes);
      if (stall > 0) w.stall[tid] += double(stall);
      w.high_water = std::max(w.high_water, last);
      return;
    }
    on_request(tid, accepted, bytes, is_write, expected, stall);
  }

 protected:
  /// sample_compute's slow path, with the same arguments.
  virtual void on_compute(thread_id_t tid, long long int_ops,
                          long long fp_ops, cycle_t t0, cycle_t t1) = 0;

  /// sample_request's slow path, with the same arguments.
  virtual void on_request(thread_id_t tid, cycle_t accepted,
                          std::uint32_t bytes, bool is_write,
                          cycle_t expected, cycle_t stall) = 0;

  SampleWindow window_;
};

}  // namespace hlsprof::sim
