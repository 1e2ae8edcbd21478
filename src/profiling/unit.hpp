// The profiling unit of the paper's Fig. 1: it snoops the datapath (via
// SimHooks), records thread states on every change, aggregates sampled
// event counters, and flushes 512-bit lines of encoded records to external
// memory through the shared bus — so tracing perturbs the application
// exactly as the hardware would.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "hls/design.hpp"
#include "profiling/config.hpp"
#include "sim/hooks.hpp"
#include "sim/memory.hpp"
#include "trace/records.hpp"
#include "trace/streaming.hpp"
#include "trace/timed_trace.hpp"

namespace hlsprof::profiling {

class ProfilingUnit final : public sim::SimHooks {
 public:
  /// Reserves the trace region in `mem`. The unit must outlive the run.
  ProfilingUnit(const hls::Design& design, const ProfilingConfig& config,
                sim::ExternalMemory& mem);

  // ---- SimHooks ---------------------------------------------------------
  void on_state(thread_id_t tid, sim::ThreadState state, cycle_t t) override;
  // Aggregate spans synthesized by the fast-forward tier (approx mode):
  // spread uniformly over [t0, t1) so sampled bandwidth/stall windows show
  // the same plateau the executed requests would have produced.
  void on_mem_span(thread_id_t tid, cycle_t t0, cycle_t t1,
                   std::uint64_t bytes_read,
                   std::uint64_t bytes_written) override;
  void on_stall_span(thread_id_t tid, cycle_t t0, cycle_t t1,
                     cycle_t cycles) override;
  void on_finish(cycle_t t) override;

  // ---- Streaming consumption ---------------------------------------------
  /// Install a sink that receives every flush burst (whole 512-bit lines)
  /// as it is written to external memory — the in-execution capture path.
  /// With a sink installed the DRAM trace region becomes a ring: bursts
  /// wrap around instead of overflowing, because the host has already
  /// consumed the lines, so the trace size is no longer bounded by
  /// trace_region_bytes (and post-run decode() is unavailable once the
  /// ring has wrapped). Pass nullptr to detach. The sink must stay alive
  /// until detached or the run finishes.
  void set_flush_sink(trace::FlushSink* sink) { sink_ = sink; }

  /// Largest single flush burst delivered so far, in bytes. A streaming
  /// consumer's peak residency is bounded by this (at most
  /// `buffer_lines * trace::kLineBytes`), independent of run length.
  std::size_t peak_burst_bytes() const { return peak_burst_bytes_; }

  // ---- Post-run access ----------------------------------------------------
  /// Read the raw trace back from simulated DRAM and decode it — the exact
  /// path a host application takes (paper §IV-B: "there they can later be
  /// accessed from the host for analysis"). Requires the trace to still be
  /// fully resident (i.e. the ring must not have wrapped).
  trace::DecodedTrace decode() const;

  /// Decode and reconstruct the timeline (batch path; core::Session uses
  /// the streaming pipeline instead).
  trace::TimedTrace timeline() const;

  std::size_t trace_bytes_written() const { return trace_write_off_; }
  long long flush_bursts() const { return flush_bursts_; }
  long long state_records() const { return state_records_; }
  long long event_records() const { return event_records_; }
  cycle_t run_end() const { return run_end_; }
  const ProfilingConfig& config() const { return cfg_; }

 private:
  void on_compute(thread_id_t tid, long long int_ops, long long fp_ops,
                  cycle_t t0, cycle_t t1) override;
  void on_request(thread_id_t tid, cycle_t accepted, std::uint32_t bytes,
                  bool is_write, cycle_t expected, cycle_t stall) override;
  /// Cache the window of the high-water mark for the inline paths of
  /// sample_request and sample_compute, and drop the cache (uncache)
  /// whenever windows close, the ring moves, or the mark reaches
  /// close_at_.
  void cache_window();
  void uncache() { window_.end = window_.lo; }
  void raise_high_water(cycle_t t);
  void append_state_record(cycle_t t);
  void maybe_flush(cycle_t t, bool force);
  void finalize_windows_up_to(cycle_t t);
  void note_time(cycle_t t);
  void emit_window(std::size_t w, const double* acc);
  /// Sampling window holding cycle `t`.
  std::size_t window_of(cycle_t t) const {
    return std::size_t(t / cfg_.sampling_period);
  }
  /// Accumulators of window `w` (not yet emitted), opening the windows up
  /// to it first when needed (open_through).
  double* window(std::size_t w);
  void open_through(std::size_t w);
  void deposit(int metric, thread_id_t tid, cycle_t t, double amount);
  /// `amount` spread uniformly over [t0, t1), window by window.
  void deposit_range(int metric, thread_id_t tid, cycle_t t0, cycle_t t1,
                     double amount);

  const hls::Design& d_;
  ProfilingConfig cfg_;
  sim::ExternalMemory& mem_;
  int T_;

  addr_t trace_base_ = 0;
  std::size_t trace_write_off_ = 0;  // total bytes ever flushed
  std::size_t ring_bytes_ = 0;       // region size rounded down to lines

  trace::LineEncoder encoder_;
  std::size_t buffered_lines_ = 0;
  trace::FlushSink* sink_ = nullptr;
  std::size_t peak_burst_bytes_ = 0;
  /// The last flush burst; its capacity takes the next one.
  std::vector<std::uint8_t> burst_;

  // State tracker.
  trace::StateWord state_now_ = 0;  // every thread's code, packed
  bool state_dirty_ = false;
  cycle_t last_state_record_t_ = kNoCycle;

  // Event counters of the open sampling windows, from the first
  // unemitted one (`next_window_`) to the last one a sample reached:
  // `open_` windows of kMetrics * T plain accumulators each, indexed
  // [metric][thread] (metrics: 0 stall, 1 int, 2 fp, 3 bytes_rd,
  // 4 bytes_wr), in a ring of `ring_windows_` (a power of two) slots.
  // Samples for windows already emitted are dropped. A closed window's
  // slot is zeroed for reuse. The inherited `window_` caches one open
  // window (its stall row is the window's base) and holds the
  // high-water mark of every sampled timestamp.
  static constexpr int kMetrics = 5;
  std::size_t stride_ = 0;  // kMetrics * T
  std::vector<double> ring_;
  std::size_t ring_windows_ = 0;
  std::size_t open_ = 0;
  std::size_t next_window_ = 0;
  /// Windows close `lag_` cycles behind the high-water mark; the next one
  /// closes once the mark reaches `close_at_`.
  cycle_t lag_ = 0;
  cycle_t close_at_ = 0;

  long long state_records_ = 0;
  long long event_records_ = 0;
  long long flush_bursts_ = 0;
  cycle_t run_end_ = 0;
  bool finished_ = false;
};

}  // namespace hlsprof::profiling
