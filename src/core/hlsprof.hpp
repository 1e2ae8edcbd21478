// HLSProf public API façade: compile a kernel, run it with or without the
// embedded profiling unit, and get back cycle counts plus the decoded
// Paraver-ready timeline. Everything underneath (IR builder, HLS
// scheduler, simulator, tracer, Paraver writers) is also public for
// advanced use; this header is the 90% path.
//
//   ir::Kernel k = workloads::gemm_naive(cfg);
//   core::Session s(core::compile(std::move(k)));
//   s.sim().bind_f32("A", a); ... s.sim().set_arg("DIM", 512);
//   core::RunResult r = s.run();
//   paraver::write_paraver(r.timeline, "gemm", "out/gemm_v1");
#pragma once

#include <functional>
#include <memory>
#include <utility>

#include "common/error.hpp"
#include "hls/compiler.hpp"
#include "hls/design.hpp"
#include "profiling/config.hpp"
#include "profiling/overhead.hpp"
#include "profiling/unit.hpp"
#include "sim/simulator.hpp"
#include "trace/timed_trace.hpp"

namespace hlsprof::core {

/// Compile a kernel into an accelerator design (see hls::compile).
inline hls::Design compile(ir::Kernel k,
                           const hls::HlsOptions& opts = hls::HlsOptions{}) {
  return hls::compile(std::move(k), opts);
}

/// Compile straight into shared ownership — the form to use when several
/// sessions (or the batch runner's design cache) run the same design.
inline std::shared_ptr<const hls::Design> compile_shared(
    ir::Kernel k, const hls::HlsOptions& opts = hls::HlsOptions{}) {
  return std::make_shared<const hls::Design>(hls::compile(std::move(k), opts));
}

/// Observer of a run's timeline fold (see RunOptions::trace_progress).
using TraceHook = std::function<void(const trace::TimedTraceBuilder&)>;

struct RunOptions {
  /// Simulation runs on the fast path (direct dispatch + batched memory
  /// streams) by default; set `sim.reference_event_loop` to use the
  /// original event loop — cycle-exact with the fast path and kept as
  /// the verification oracle (DESIGN.md §6e, docs/PERF.md). Set
  /// `sim.fast_forward` for the opt-in approximate tier that jumps over
  /// steady-state memory-bound loop phases (DESIGN.md §6j) — outputs
  /// are then not meaningful, so pair it with disabled verification.
  sim::SimParams sim;
  profiling::ProfilingConfig profiling;
  bool enable_profiling = true;
  /// Optional live observer of the canonical timeline fold: called with
  /// the run's TimedTraceBuilder after each decoded flush burst and once
  /// after the final drain, on the thread running the simulation. The
  /// builder is read-only to it, so the timeline — and therefore report
  /// and Paraver bytes — is the same with a hook or without. Empty (the
  /// default) costs one check per flush burst. Ignored when profiling is
  /// disabled.
  TraceHook trace_progress;
};

struct RunResult {
  sim::SimResult sim;
  /// Timeline reconstructed by streaming every flush burst through
  /// trace::StreamingDecoder → trace::TimedTraceBuilder as the run
  /// executes; empty (num_threads == 0) when profiling was disabled.
  trace::TimedTrace timeline;
  bool has_trace = false;
  // Tracer statistics (zero when profiling was disabled).
  long long state_records = 0;
  long long event_records = 0;
  long long flush_bursts = 0;
  std::size_t trace_bytes = 0;
  /// Largest flush burst the streaming pipeline had resident at once —
  /// the peak host-side trace memory of the run. Bounded by
  /// `profiling.buffer_lines * trace::kLineBytes` regardless of how long
  /// the run was or how many bytes the trace totalled.
  std::size_t peak_trace_buffer_bytes = 0;
};

/// One kernel launch: owns the simulator and (optionally) the profiling
/// unit wired into it.
///
/// The session *owns* its design (shared ownership), so the documented
/// pattern of constructing from a temporary —
/// `core::Session s(core::compile(std::move(k)))` — is safe, and the
/// runner's design cache can hand the same compiled design to many
/// concurrent sessions without copies.
class Session {
 public:
  /// Takes ownership of the design (designs are move-only — the kernel's
  /// control tree holds unique_ptr regions). To run one design in several
  /// sessions, compile with compile_shared() and pass the shared_ptr.
  explicit Session(hls::Design&& design, RunOptions opts = RunOptions{})
      : Session(std::make_shared<const hls::Design>(std::move(design)),
                std::move(opts)) {}

  /// Shares an already-compiled design (no copy) — the cache-hit path.
  explicit Session(std::shared_ptr<const hls::Design> design,
                   RunOptions opts = RunOptions{})
      : design_(std::move(design)),
        opts_(opts),
        sim_(checked(design_), opts.sim) {
    if (opts_.enable_profiling) {
      unit_ = std::make_unique<profiling::ProfilingUnit>(
          *design_, opts_.profiling, sim_.memory());
    }
  }

  /// Bind buffers / scalar args here before run().
  sim::Simulator& sim() { return sim_; }
  const hls::Design& design() const { return *design_; }
  const std::shared_ptr<const hls::Design>& design_ptr() const {
    return design_;
  }
  const profiling::ProfilingUnit* unit() const { return unit_.get(); }

  RunResult run() {
    RunResult r;
    if (unit_ == nullptr) {
      r.sim = sim_.run(nullptr);
      return r;
    }
    // Streaming trace pipeline: every flush burst is decoded and folded
    // into the timeline as it lands in DRAM, so the host never holds more
    // than one burst of raw trace — trace size no longer bounds job
    // memory, and the DRAM trace region acts as a ring instead of
    // overflowing. The burst-by-burst decode yields byte-identical
    // timelines to the post-run batch path (unit()->timeline()), which
    // remains available while the ring has not wrapped.
    trace::TimedTraceBuilder builder(design_->kernel.num_threads,
                                     opts_.profiling.sampling_period);
    trace::StreamingDecoder decoder(design_->kernel.num_threads, builder);
    ProgressSink sink{decoder, builder, opts_.trace_progress};
    unit_->set_flush_sink(&sink);
    const SinkGuard guard{unit_.get()};  // detach even if the run throws
    r.sim = sim_.run(unit_.get());
    decoder.finish();
    if (opts_.trace_progress) opts_.trace_progress(builder);
    r.timeline = builder.finish(unit_->run_end());
    r.has_trace = true;
    // Extension beyond the paper (its multi-FPGA future work, first
    // step): host<->device map() transfers become Paraver communication
    // records anchored on thread 0.
    for (const sim::HostTransfer& t : r.sim.transfers) {
      r.timeline.comms.push_back(trace::CommRecord{
          0, t.begin, t.end, t.bytes,
          t.to_device ? trace::kCommTagToDevice
                      : trace::kCommTagFromDevice});
    }
    r.state_records = unit_->state_records();
    r.event_records = unit_->event_records();
    r.flush_bursts = unit_->flush_bursts();
    r.trace_bytes = unit_->trace_bytes_written();
    r.peak_trace_buffer_bytes = unit_->peak_burst_bytes();
    return r;
  }

  /// Hardware cost of the profiling configuration on this design.
  profiling::ProfilingOverhead overhead() const {
    return profiling::estimate_overhead(*design_, opts_.profiling);
  }

 private:
  /// The run's flush sink: decode each burst into the builder, then show
  /// the builder to the progress hook, if any.
  struct ProgressSink final : trace::FlushSink {
    trace::StreamingDecoder& decoder;
    const trace::TimedTraceBuilder& builder;
    const TraceHook& hook;
    ProgressSink(trace::StreamingDecoder& d, const trace::TimedTraceBuilder& b,
                 const TraceHook& h)
        : decoder(d), builder(b), hook(h) {}
    void on_burst(const std::uint8_t* data, std::size_t bytes) override {
      decoder.on_burst(data, bytes);
      if (hook) hook(builder);
    }
  };

  /// Detaches the run-local flush sink from the unit on scope exit, so
  /// the unit never holds a dangling sink pointer after a throwing run.
  struct SinkGuard {
    profiling::ProfilingUnit* unit;
    ~SinkGuard() { unit->set_flush_sink(nullptr); }
  };

  static const hls::Design& checked(
      const std::shared_ptr<const hls::Design>& p) {
    HLSPROF_CHECK(p != nullptr, "Session: null design");
    return *p;
  }

  std::shared_ptr<const hls::Design> design_;
  RunOptions opts_;
  sim::Simulator sim_;
  std::unique_ptr<profiling::ProfilingUnit> unit_;
};

}  // namespace hlsprof::core
