// Tests for the profiling unit: state recording, event sampling, the
// buffer/flush engine, DRAM round-trip decoding, and the overhead model.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/hlsprof.hpp"
#include "paraver/writer.hpp"
#include "profiling/overhead.hpp"
#include "profiling/unit.hpp"
#include "workloads/gemm.hpp"
#include "workloads/pi.hpp"
#include "workloads/reference.hpp"
#include "workloads/simple.hpp"

namespace hlsprof::profiling {
namespace {

using sim::ThreadState;
using trace::EventKind;

core::RunOptions fast_opts() {
  core::RunOptions o;
  o.sim.host.thread_start_interval = 300;
  o.profiling.sampling_period = 128;
  return o;
}

core::RunResult run_dot(int threads, core::RunOptions opts,
                        std::int64_t n = 240) {
  hls::Design d = hls::compile(workloads::dot(n, threads));
  core::Session s(std::move(d), opts);
  auto x = workloads::random_vector(n, 3);
  auto y = workloads::random_vector(n, 4);
  std::vector<float> out(1, 0.0f);
  s.sim().bind_f32("x", x);
  s.sim().bind_f32("y", y);
  s.sim().bind_f32("out", out);
  return s.run();
}

// ---- state recording ---------------------------------------------------------

TEST(ProfilingStates, LifecycleIdleRunningIdle) {
  const auto r = run_dot(2, fast_opts());
  ASSERT_TRUE(r.has_trace);
  int trailing_idle = 0;
  for (int t = 0; t < 2; ++t) {
    const auto& iv = r.timeline.thread_states[std::size_t(t)];
    ASSERT_GE(iv.size(), 2u) << t;
    EXPECT_EQ(iv.front().state, ThreadState::idle);
    bool ran = false;
    for (const auto& s : iv) ran |= s.state == ThreadState::running;
    EXPECT_TRUE(ran);
    if (iv.back().state == ThreadState::idle) ++trailing_idle;
  }
  // Every thread except the last finisher shows a trailing idle interval
  // (the trace ends exactly when the last thread goes idle).
  EXPECT_GE(trailing_idle, 1);
}

TEST(ProfilingStates, CriticalSectionsAppearInTrace) {
  const auto r = run_dot(4, fast_opts());
  EXPECT_GT(r.timeline.state_cycles(ThreadState::critical), 0u);
}

TEST(ProfilingStates, IntervalsArePartition) {
  // Per thread: intervals are contiguous, non-overlapping, cover [0, end).
  const auto r = run_dot(4, fast_opts());
  for (const auto& iv : r.timeline.thread_states) {
    ASSERT_FALSE(iv.empty());
    EXPECT_EQ(iv.front().begin, 0u);
    for (std::size_t i = 1; i < iv.size(); ++i) {
      EXPECT_EQ(iv[i].begin, iv[i - 1].end);
    }
    EXPECT_EQ(iv.back().end, r.timeline.duration);
  }
}

TEST(ProfilingStates, SpinningRecordedUnderContention) {
  // 8 threads hammering one critical section must spin.
  core::RunOptions o = fast_opts();
  const auto r = run_dot(8, o, 960);
  EXPECT_GT(r.timeline.state_cycles(ThreadState::spinning), 0u);
}

TEST(ProfilingStates, DisabledStatesProduceNoStateRecords) {
  core::RunOptions o = fast_opts();
  o.profiling.enable_states = false;
  const auto r = run_dot(2, o);
  EXPECT_EQ(r.state_records, 0);
  EXPECT_GT(r.event_records, 0);
}

// ---- event sampling --------------------------------------------------------------

TEST(ProfilingEvents, MemoryBytesMatchSimulatorCounts) {
  const auto r = run_dot(2, fast_opts());
  // Trace bytes-read must equal the application's loads (4 B each); the
  // tracer's own flush writes must NOT appear (it snoops the CU ports).
  long long app_loads = 0;
  for (const auto& t : r.sim.threads) app_loads += t.ext_loads;
  EXPECT_EQ(r.timeline.event_total(EventKind::bytes_read),
            std::uint64_t(app_loads) * 4);
}

TEST(ProfilingEvents, FlopCountsMatchSimulator) {
  const auto r = run_dot(2, fast_opts());
  const auto traced = r.timeline.event_total(EventKind::fp_ops);
  const auto simmed = std::uint64_t(r.sim.total_fp_ops());
  // add_range attribution rounds per window; allow 1% slack.
  EXPECT_NEAR(double(traced), double(simmed), 0.01 * double(simmed) + 2);
}

TEST(ProfilingEvents, StallCyclesMatchSimulator) {
  const auto r = run_dot(2, fast_opts());
  EXPECT_EQ(r.timeline.event_total(EventKind::stall_cycles),
            std::uint64_t(r.sim.total_stall_cycles()));
}

TEST(ProfilingEvents, WindowTimestampsAlignToPeriod) {
  const auto r = run_dot(2, fast_opts());
  for (const auto& e : r.timeline.events) {
    EXPECT_EQ(e.t % 128, 0u);
  }
}

TEST(ProfilingEvents, DisabledCollectorsEmitNothing) {
  core::RunOptions o = fast_opts();
  o.profiling.enable_memory_events = false;
  o.profiling.enable_stall_events = false;
  const auto r = run_dot(2, o);
  EXPECT_EQ(r.timeline.event_total(EventKind::bytes_read), 0u);
  EXPECT_EQ(r.timeline.event_total(EventKind::stall_cycles), 0u);
  EXPECT_GT(r.timeline.event_total(EventKind::fp_ops), 0u);
}

TEST(ProfilingEvents, FinerPeriodMoreRecords) {
  core::RunOptions coarse = fast_opts();
  coarse.profiling.sampling_period = 4096;
  core::RunOptions fine = fast_opts();
  fine.profiling.sampling_period = 64;
  const auto rc = run_dot(2, coarse);
  const auto rf = run_dot(2, fine);
  EXPECT_GT(rf.event_records, rc.event_records);
  EXPECT_GT(rf.trace_bytes, rc.trace_bytes);
}

// ---- buffer / flush engine ---------------------------------------------------------

TEST(ProfilingFlush, SmallerBufferFlushesMoreOften) {
  core::RunOptions small = fast_opts();
  small.profiling.buffer_lines = 8;
  core::RunOptions big = fast_opts();
  big.profiling.buffer_lines = 512;
  const auto rs = run_dot(4, small);
  const auto rb = run_dot(4, big);
  EXPECT_GT(rs.flush_bursts, rb.flush_bursts);
}

TEST(ProfilingFlush, TraceRegionOverflowDiagnosedWithoutSink) {
  // Batch mode (no streaming sink): the whole trace must stay resident
  // for the post-run decode, so a tiny region overflows.
  hls::Design d = hls::compile(workloads::dot(240, 4));
  sim::Simulator s(d, fast_opts().sim);
  ProfilingConfig cfg = fast_opts().profiling;
  cfg.sampling_period = 16;     // huge record volume
  cfg.trace_region_bytes = 512;  // tiny region
  ProfilingUnit unit(d, cfg, s.memory());
  auto x = workloads::random_vector(240, 3);
  auto y = workloads::random_vector(240, 4);
  std::vector<float> out(1, 0.0f);
  s.bind_f32("x", x);
  s.bind_f32("y", y);
  s.bind_f32("out", out);
  EXPECT_THROW(s.run(&unit), Error);
}

TEST(ProfilingFlush, StreamingSinkMakesTinyRegionARing) {
  // Session streams each flush burst through the decoder, so the DRAM
  // region wraps instead of overflowing and the run that used to die with
  // "trace region overflow" completes with a full timeline.
  core::RunOptions o = fast_opts();
  o.profiling.sampling_period = 16;     // huge record volume
  o.profiling.trace_region_bytes = 512;  // tiny region — now a ring
  const auto r = run_dot(4, o);
  ASSERT_TRUE(r.has_trace);
  EXPECT_GT(r.trace_bytes, o.profiling.trace_region_bytes);
  EXPECT_EQ(r.timeline.num_threads, 4);
  EXPECT_GT(r.timeline.duration, 0u);
  EXPECT_GT(r.timeline.state_cycles(ThreadState::running), 0u);
}

TEST(ProfilingFlush, PeakTraceBufferBoundedByBurstSize) {
  // Peak host-side trace residency is O(flush burst), not O(run): it can
  // never exceed the on-chip buffer capacity, however big the trace got.
  core::RunOptions o = fast_opts();
  o.profiling.buffer_lines = 8;
  o.profiling.flush_headroom_lines = 2;
  const auto r = run_dot(4, o, 960);
  ASSERT_TRUE(r.has_trace);
  EXPECT_GT(r.peak_trace_buffer_bytes, 0u);
  EXPECT_LE(r.peak_trace_buffer_bytes,
            std::size_t(o.profiling.buffer_lines) * trace::kLineBytes);
  // The bound is burst-sized even though the whole trace is much bigger.
  EXPECT_GT(r.trace_bytes, r.peak_trace_buffer_bytes);
}

TEST(ProfilingFlush, TraceBytesAreWholeLines) {
  const auto r = run_dot(2, fast_opts());
  EXPECT_GT(r.trace_bytes, 0u);
  EXPECT_EQ(r.trace_bytes % trace::kLineBytes, 0u);
}

TEST(ProfilingFlush, BadConfigRejected) {
  hls::Design d = hls::compile(workloads::dot(240, 2));
  sim::Simulator s(d);
  ProfilingConfig bad;
  bad.sampling_period = 0;
  EXPECT_THROW(ProfilingUnit(d, bad, s.memory()), Error);
  ProfilingConfig bad2;
  bad2.buffer_lines = 2;
  bad2.flush_headroom_lines = 4;
  EXPECT_THROW(ProfilingUnit(d, bad2, s.memory()), Error);
}

// ---- round-trip through simulated DRAM ----------------------------------------------

TEST(ProfilingRoundTrip, DecodeMatchesRecordCounts) {
  hls::Design d = hls::compile(workloads::dot(240, 2));
  core::RunOptions o = fast_opts();
  core::Session s(std::move(d), o);
  auto x = workloads::random_vector(240, 3);
  auto y = workloads::random_vector(240, 4);
  std::vector<float> out(1, 0.0f);
  s.sim().bind_f32("x", x);
  s.sim().bind_f32("y", y);
  s.sim().bind_f32("out", out);
  const auto r = s.run();
  const auto decoded = s.unit()->decode();
  EXPECT_EQ(static_cast<long long>(decoded.states.size()), r.state_records);
  EXPECT_EQ(static_cast<long long>(decoded.events.size()), r.event_records);
}

TEST(ProfilingRoundTrip, TimelineBeforeFinishRejected) {
  hls::Design d = hls::compile(workloads::dot(240, 2));
  sim::Simulator s(d);
  ProfilingUnit unit(d, ProfilingConfig{}, s.memory());
  EXPECT_THROW(unit.timeline(), Error);
}

TEST(ProfilingRoundTrip, PerturbationIsBoundedButTrafficReal) {
  // The tracer's flush traffic goes through the shared DRAM: the profiled
  // run differs from the clean run by less than 2%, and the DRAM write
  // count includes the trace lines.
  auto d = core::compile_shared(workloads::dot(960, 4));
  core::RunOptions clean = fast_opts();
  clean.enable_profiling = false;
  core::RunOptions traced = fast_opts();

  auto run_with = [&](const core::RunOptions& o) {
    core::Session s(d, o);
    auto x = workloads::random_vector(960, 3);
    auto y = workloads::random_vector(960, 4);
    std::vector<float> out(1, 0.0f);
    s.sim().bind_f32("x", x);
    s.sim().bind_f32("y", y);
    s.sim().bind_f32("out", out);
    return s.run();
  };
  const auto rc = run_with(clean);
  const auto rt = run_with(traced);
  const double delta =
      std::abs(double(rt.sim.kernel_cycles) - double(rc.sim.kernel_cycles)) /
      double(rc.sim.kernel_cycles);
  EXPECT_LT(delta, 0.02);
  EXPECT_GT(rt.sim.dram_writes, rc.sim.dram_writes);
}

// ---- streaming pipeline vs post-run batch decode -------------------------------------

// The acceptance bar for the streaming pipeline: the timeline it builds
// burst-by-burst must render byte-identical Paraver files to the pre-change
// batch path (read the whole DRAM trace region after the run, decode, then
// reconstruct). Exercised on the paper's two case-study kernels.
void expect_stream_equals_batch(core::Session& s, core::RunResult r) {
  ASSERT_TRUE(r.has_trace);
  // Rebuild the timeline the old way: whole-region DRAM read-back.
  trace::TimedTrace batch = s.unit()->timeline();
  for (const sim::HostTransfer& t : r.sim.transfers) {
    batch.comms.push_back(trace::CommRecord{
        0, t.begin, t.end, t.bytes,
        t.to_device ? trace::kCommTagToDevice : trace::kCommTagFromDevice});
  }
  const auto stream_files = paraver::to_paraver(r.timeline, "stream");
  const auto batch_files = paraver::to_paraver(batch, "stream");
  EXPECT_EQ(stream_files.prv, batch_files.prv);
  EXPECT_EQ(stream_files.pcf, batch_files.pcf);
  EXPECT_EQ(stream_files.row, batch_files.row);
}

TEST(ProfilingStreaming, GemmParaverByteIdenticalToBatchDecode) {
  workloads::GemmConfig cfg;
  cfg.dim = 16;
  core::Session s(core::compile(workloads::gemm_naive(cfg)), fast_opts());
  auto a = workloads::random_matrix(cfg.dim, 11);
  auto b = workloads::random_matrix(cfg.dim, 22);
  std::vector<float> c(std::size_t(cfg.dim) * std::size_t(cfg.dim), 0.0f);
  s.sim().bind_f32("A", a);
  s.sim().bind_f32("B", b);
  s.sim().bind_f32("C", c);
  expect_stream_equals_batch(s, s.run());
}

TEST(ProfilingStreaming, PiParaverByteIdenticalToBatchDecode) {
  workloads::PiConfig cfg;
  cfg.steps = 4096;
  core::Session s(core::compile(workloads::pi_series(cfg)), fast_opts());
  std::vector<float> out(1, 0.0f);
  s.sim().bind_f32("out", out);
  s.sim().set_arg("steps", std::int64_t(cfg.steps));
  s.sim().set_arg("inv_steps", 1.0 / double(cfg.steps));
  expect_stream_equals_batch(s, s.run());
}

// ---- overhead model ------------------------------------------------------------------

TEST(Overhead, ZeroWhenEverythingDisabled) {
  workloads::GemmConfig cfg;
  cfg.dim = 32;
  hls::Design d = hls::compile(workloads::gemm_naive(cfg));
  ProfilingConfig off;
  off.enable_states = false;
  off.enable_stall_events = false;
  off.enable_compute_events = false;
  off.enable_memory_events = false;
  const auto oh = estimate_overhead(d, off);
  EXPECT_DOUBLE_EQ(oh.delta.ff, 0.0);
  EXPECT_DOUBLE_EQ(oh.delta.alm, 0.0);
}

TEST(Overhead, EachCollectorAddsHardware) {
  workloads::GemmConfig cfg;
  cfg.dim = 32;
  hls::Design d = hls::compile(workloads::gemm_naive(cfg));
  ProfilingConfig base;
  base.enable_states = false;
  base.enable_stall_events = false;
  base.enable_compute_events = false;
  base.enable_memory_events = false;

  double prev_ff = estimate_overhead(d, base).delta.ff;
  auto check_grows = [&](auto enable) {
    ProfilingConfig c = base;
    enable(c);
    const double ff = estimate_overhead(d, c).delta.ff;
    EXPECT_GT(ff, prev_ff);
  };
  check_grows([](ProfilingConfig& c) { c.enable_states = true; });
  check_grows([](ProfilingConfig& c) { c.enable_stall_events = true; });
  check_grows([](ProfilingConfig& c) { c.enable_compute_events = true; });
  check_grows([](ProfilingConfig& c) { c.enable_memory_events = true; });
}

TEST(Overhead, CountersContributeSimilarly) {
  // The paper: "each of the counters contributes similarly to the
  // hardware overhead, none ... remarkably expensive."
  workloads::GemmConfig cfg;
  cfg.dim = 64;
  hls::Design d = hls::compile(workloads::gemm_naive(cfg));
  const auto oh = estimate_overhead(d, ProfilingConfig{});
  const double parts[] = {oh.parts.stall_counters.alm,
                          oh.parts.compute_counters.alm,
                          oh.parts.memory_counters.alm};
  for (double a : parts) {
    for (double b : parts) {
      EXPECT_LT(a / b, 5.0);  // within a small factor of each other
    }
  }
}

TEST(Overhead, RelativeCostShrinksForBiggerDesigns) {
  workloads::GemmConfig small;
  small.dim = 32;
  workloads::GemmConfig big = small;
  big.block = 16;
  hls::Design d_small = hls::compile(workloads::gemm_naive(small));
  hls::Design d_big = hls::compile(workloads::gemm_blocked(big));
  const auto oh_small = estimate_overhead(d_small, ProfilingConfig{});
  const auto oh_big = estimate_overhead(d_big, ProfilingConfig{});
  EXPECT_GT(oh_small.register_pct, oh_big.register_pct);
}

TEST(Overhead, FmaxDeltaWithinPaperBound) {
  for (const auto& v : workloads::gemm_versions()) {
    workloads::GemmConfig cfg;
    cfg.dim = 64;
    hls::Design d = hls::compile(v.build(cfg));
    const auto oh = estimate_overhead(d, ProfilingConfig{});
    EXPECT_LE(oh.fmax_delta_mhz, 8.0) << v.name;
    EXPECT_GE(oh.fmax_delta_mhz, 0.0) << v.name;
    EXPECT_GT(oh.fmax_delta_mhz, 0.0) << v.name;
  }
}

TEST(Overhead, BufferDepthCostsBram) {
  workloads::GemmConfig cfg;
  cfg.dim = 32;
  hls::Design d = hls::compile(workloads::gemm_naive(cfg));
  ProfilingConfig small;
  small.buffer_lines = 16;
  ProfilingConfig big;
  big.buffer_lines = 256;
  EXPECT_GT(estimate_overhead(d, big).delta.bram_bits,
            estimate_overhead(d, small).delta.bram_bits);
}

}  // namespace
}  // namespace hlsprof::profiling
