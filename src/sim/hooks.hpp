// Observation interface between the simulator and the profiling unit.
// The simulator calls these hooks as the hardware signals the profiling
// unit snoops would toggle: thread state changes (semaphore & controller),
// pipeline stalls (VLO overruns), stage activations (op execution), and
// Avalon memory requests. A run without profiling passes no hooks, which
// also removes the tracer's bus traffic (paper §V-B measures exactly this
// delta).
#pragma once

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

class SimHooks {
 public:
  virtual ~SimHooks() = default;

  /// Thread `tid` entered `state` at cycle `t`. Calls arrive in
  /// non-decreasing `t` order per thread.
  virtual void on_state(thread_id_t tid, ThreadState state, cycle_t t) = 0;

  /// A variable-latency operation overran the scheduler's assumed minimum:
  /// the thread's pipeline stalled for `cycles` starting at `t`.
  virtual void on_stall(thread_id_t tid, cycle_t t, cycle_t cycles) = 0;

  /// `int_ops`/`fp_ops` lane-operations executed by `tid` spread over
  /// [t0, t1). Batched (typically one call per loop execution or between
  /// memory operations) — the profiling unit's sampled counters only need
  /// window aggregates.
  virtual void on_compute(thread_id_t tid, long long int_ops,
                          long long fp_ops, cycle_t t0, cycle_t t1) = 0;

  /// An external-memory request of `bytes` from `tid` was accepted by the
  /// Avalon interface at cycle `t` (request-side accounting; the paper
  /// accepts the small skew of not tracking responses, §IV-B2c).
  virtual void on_mem(thread_id_t tid, cycle_t t, std::uint32_t bytes,
                      bool is_write) = 0;

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
};

}  // namespace hlsprof::sim
