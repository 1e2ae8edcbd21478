// End-to-end integration tests: the full pipeline (frontend -> HLS ->
// simulation -> hardware trace -> decode -> Paraver -> analysis), plus
// paper-shape regression tests that pin the qualitative results of every
// reproduced experiment at reduced problem sizes.
#include <gtest/gtest.h>

#include "core/hlsprof.hpp"
#include "paraver/analysis.hpp"
#include "paraver/ascii.hpp"
#include "paraver/reader.hpp"
#include "paraver/writer.hpp"
#include "runner/runner.hpp"
#include "workloads/gemm.hpp"
#include "workloads/pi.hpp"
#include "workloads/reference.hpp"
#include "workloads/simple.hpp"

namespace hlsprof {
namespace {

using sim::ThreadState;
using trace::EventKind;

core::RunResult run_gemm_version(std::size_t idx, int dim,
                                 core::RunOptions opts = core::RunOptions{}) {
  workloads::GemmConfig cfg;
  cfg.dim = dim;
  hls::Design d = core::compile(workloads::gemm_versions()[idx].build(cfg));
  core::Session s(std::move(d), opts);
  auto a = workloads::random_matrix(dim, 1);
  auto b = workloads::random_matrix(dim, 2);
  std::vector<float> c(std::size_t(dim) * std::size_t(dim), 0.0f);
  s.sim().bind_f32("A", a);
  s.sim().bind_f32("B", b);
  s.sim().bind_f32("C", c);
  return s.run();
}

// ---- full-pipeline consistency ------------------------------------------------

TEST(Integration, TraceToParaverToParserRoundTrip) {
  const auto r = run_gemm_version(0, 32);
  ASSERT_TRUE(r.has_trace);
  const auto files = paraver::to_paraver(r.timeline, "gemm");
  const auto parsed = paraver::parse_prv(files.prv);
  EXPECT_EQ(parsed.trace.num_threads, r.timeline.num_threads);
  EXPECT_EQ(parsed.trace.duration, r.timeline.duration);
  EXPECT_EQ(parsed.trace.events.size(), r.timeline.events.size());
  // State summaries must agree after the round trip.
  EXPECT_EQ(parsed.trace.thread_states.size(),
            r.timeline.thread_states.size());
  for (auto st : {ThreadState::running, ThreadState::critical,
                  ThreadState::spinning}) {
    EXPECT_EQ(parsed.trace.state_cycles(st), r.timeline.state_cycles(st));
  }
}

TEST(Integration, TraceDurationMatchesSimEnd) {
  const auto r = run_gemm_version(0, 32);
  EXPECT_EQ(r.timeline.duration, r.sim.kernel_done);
}

TEST(Integration, AsciiViewRendersKernelTrace) {
  const auto r = run_gemm_version(0, 32);
  const std::string view = paraver::render_state_view(r.timeline);
  EXPECT_NE(view.find('#'), std::string::npos);  // running columns exist
}

TEST(Integration, RunningTimeDominatesForBusyKernel) {
  core::RunOptions opts;
  opts.sim.host.thread_start_interval = 100;  // minimal start overhead
  const auto r = run_gemm_version(0, 64, opts);
  const auto s = paraver::summarize_states(r.timeline);
  EXPECT_GT(s.running, 0.4);
}

// ---- E3/E4 shape: the GEMM optimization ladder ---------------------------------

TEST(PaperShape, GemmSpeedupLadderHolds) {
  // The paper's ordering (v1 > v2 > v3 > v4 > v5 in cycles) must hold once
  // the matrix is large enough for the blocking overheads to amortize
  // (128 is the smallest dimension where every rung of the ladder wins).
  core::RunOptions opts;
  opts.sim.host.thread_start_interval = 100;
  opts.enable_profiling = false;
  cycle_t prev = ~cycle_t{0};
  for (std::size_t v = 0; v < 5; ++v) {
    const auto r = run_gemm_version(v, 128, opts);
    EXPECT_LT(r.sim.kernel_cycles, prev)
        << workloads::gemm_versions()[v].name;
    prev = r.sim.kernel_cycles;
  }
}

TEST(PaperShape, NaiveGemmShowsCriticalAndSpinning) {
  core::RunOptions opts;
  opts.sim.host.thread_start_interval = 100;
  const auto r = run_gemm_version(0, 48, opts);
  const auto s = paraver::summarize_states(r.timeline);
  // Paper Fig. 6: 1.54% critical, 1.57% spinning — small but present.
  EXPECT_GT(s.critical, 0.001);
  EXPECT_GT(s.spinning, 0.001);
  EXPECT_LT(s.critical, 0.25);
}

TEST(PaperShape, NoCriticalVersionRemovesThoseStates) {
  core::RunOptions opts;
  opts.sim.host.thread_start_interval = 100;
  const auto r = run_gemm_version(1, 48, opts);
  EXPECT_EQ(r.timeline.state_cycles(ThreadState::critical), 0u);
  EXPECT_EQ(r.timeline.state_cycles(ThreadState::spinning), 0u);
}

TEST(PaperShape, VectorizedVersionRaisesBandwidth) {
  // Paper Fig. 7: at realistic (staggered) thread starts, the vectorized
  // version achieves clearly higher external throughput.
  const auto r2 = run_gemm_version(1, 128);
  const auto r3 = run_gemm_version(2, 128);
  EXPECT_GT(paraver::mean_bandwidth(r3.timeline),
            paraver::mean_bandwidth(r2.timeline));
}

TEST(PaperShape, BlockedVersionLowersExternalBandwidthDemand) {
  // Paper: the blocked version trades external for local bandwidth, so
  // total external traffic collapses vs. the vectorized version.
  core::RunOptions opts;
  opts.sim.host.thread_start_interval = 100;
  const auto r3 = run_gemm_version(2, 64, opts);
  const auto r4 = run_gemm_version(3, 64, opts);
  EXPECT_LT(
      double(r4.timeline.event_total(EventKind::bytes_read)),
      0.25 * double(r3.timeline.event_total(EventKind::bytes_read)));
}

TEST(PaperShape, StallsShrinkDownTheLadder) {
  core::RunOptions opts;
  opts.sim.host.thread_start_interval = 100;
  opts.enable_profiling = false;
  const auto naive = run_gemm_version(0, 64, opts);
  const auto dbuf = run_gemm_version(4, 64, opts);
  EXPECT_LT(dbuf.sim.total_stall_cycles() * 10,
            naive.sim.total_stall_cycles());
}

// ---- E5/E6 shape: phase overlap -----------------------------------------------

TEST(PaperShape, DoubleBufferingOverlapsComputeWithMemory) {
  core::RunOptions opts;
  opts.sim.host.thread_start_interval = 100;
  opts.profiling.sampling_period = 32;
  workloads::GemmConfig cfg;
  cfg.dim = 64;
  cfg.block = 16;

  auto overlap_of = [&](std::size_t idx) {
    core::Session s(
        core::compile(workloads::gemm_versions()[idx].build(cfg)), opts);
    auto a = workloads::random_matrix(cfg.dim, 1);
    auto b = workloads::random_matrix(cfg.dim, 2);
    std::vector<float> c(std::size_t(cfg.dim) * std::size_t(cfg.dim), 0.0f);
    s.sim().bind_f32("A", a);
    s.sim().bind_f32("B", b);
    s.sim().bind_f32("C", c);
    const auto r = s.run();
    return paraver::weighted_compute_mem_overlap(r.timeline, 0);
  };
  const double blocked = overlap_of(3);
  const double dbuf = overlap_of(4);
  EXPECT_LT(blocked, 0.2);  // Fig. 8: distinct phases
  EXPECT_GT(dbuf, 0.5);     // Fig. 9: prefetch under compute
}

// ---- E7 shape: pi scaling -------------------------------------------------------

TEST(PaperShape, PiGflopsClimbWithIterations) {
  double prev = 0.0;
  for (std::int64_t steps : {100000, 400000, 1000000}) {
    workloads::PiConfig cfg;
    cfg.steps = steps;
    auto d = core::compile_shared(workloads::pi_series(cfg));
    core::Session s(d);
    std::vector<float> out(1, 0.0f);
    s.sim().bind_f32("out", out);
    s.sim().set_arg("steps", steps);
    s.sim().set_arg("inv_steps", 1.0 / double(steps));
    const auto r = s.run();
    const double gf = paraver::gflops(r.sim.total_fp_ops(),
                                      r.sim.total_cycles, d->fmax_mhz);
    EXPECT_GT(gf, prev) << steps;
    prev = gf;
  }
}

TEST(PaperShape, PiSmallRunsDominatedByThreadStarts) {
  // Fig. 11: the earliest threads finish before the last ones start.
  workloads::PiConfig cfg;
  cfg.steps = 1000000;
  core::Session s(core::compile(workloads::pi_series(cfg)));
  std::vector<float> out(1, 0.0f);
  s.sim().bind_f32("out", out);
  s.sim().set_arg("steps", cfg.steps);
  s.sim().set_arg("inv_steps", 1e-6);
  const auto r = s.run();
  cycle_t first_done = ~cycle_t{0};
  cycle_t last_start = 0;
  for (const auto& t : r.sim.threads) {
    first_done = std::min(first_done, t.end);
    last_start = std::max(last_start, t.start);
  }
  EXPECT_LT(first_done, last_start);
}

// ---- E1/E2 shape: overhead bands -------------------------------------------------

TEST(PaperShape, OverheadPercentagesInPaperBand) {
  // Paper §V-B: registers <= 5.4%, ALMs <= 4% across the GEMM designs.
  for (const auto& v : workloads::gemm_versions()) {
    workloads::GemmConfig cfg;
    cfg.dim = 512;
    hls::Design d = core::compile(v.build(cfg));
    const auto oh =
        profiling::estimate_overhead(d, profiling::ProfilingConfig{});
    EXPECT_LT(oh.register_pct, 6.5) << v.name;
    EXPECT_LT(oh.alm_pct, 5.0) << v.name;
    EXPECT_GT(oh.register_pct, 0.1) << v.name;
  }
}

// ---- E8 and A1-A4 shape: saturation and the ablations -------------------------

std::vector<runner::JobResult> run_manifest(const std::string& text) {
  const runner::ManifestRun m = runner::parse_manifest(text);
  const runner::BatchResult r = m.batch.run(m.options);
  for (const auto& j : r.jobs) {
    EXPECT_EQ(j.status, runner::JobStatus::ok) << j.name << ": " << j.error;
  }
  return r.jobs;
}

TEST(PaperShape, SaturationAndAblationsHold) {
  // E8: 8 threads beat both 4 and 16 once every thread pays a software
  // start cost (the paper-calibrated 700k cycles at 128², scaled down
  // with the work).
  const auto e8 = run_manifest(
      "workload = gemm\nversion = vectorized\ndim = 48\n"
      "threads = 4, 8, 16\nthread_start_interval = 30000\nprofiling = off\n");
  EXPECT_LT(e8[1].kernel_cycles, e8[0].kernel_cycles);
  EXPECT_LT(e8[1].kernel_cycles, e8[2].kernel_cycles);

  // A1: a longer sampling period produces strictly less trace.
  const auto a1 = run_manifest(
      "workload = gemm\nversion = vectorized\ndim = 32\n"
      "sampling_period = 512, 2048, 8192, 32768, 131072\n");
  for (std::size_t i = 1; i < a1.size(); ++i) {
    EXPECT_LT(a1[i].trace_bytes, a1[i - 1].trace_bytes) << a1[i].name;
  }

  // A2: a deeper trace buffer flushes less often.
  const auto a2 = run_manifest(
      "workload = gemm\nversion = naive\ndim = 32\n"
      "buffer_lines = 8, 16, 64, 256, 1024\n");
  for (std::size_t i = 1; i < a2.size(); ++i) {
    EXPECT_LT(a2[i].flush_bursts, a2[i - 1].flush_bursts) << a2[i].name;
  }

  // A3: reordering lets fast threads overtake stalled ones.
  const auto a3 = run_manifest(
      "workload = gemm\nversion = vectorized\ndim = 32\n"
      "thread_reordering = on, off\nthread_start_interval = 100\n"
      "profiling = off\n");
  EXPECT_LT(a3[0].kernel_cycles, a3[1].kernel_cycles);

  // A4: preloader bursts beat element-wise thread-port tile loads.
  const auto a4 = run_manifest(
      "workload = gemm\nversion = blocked, preloaded\ndim = 32\n"
      "thread_start_interval = 100\nprofiling = off\n");
  EXPECT_LT(a4[1].kernel_cycles, a4[0].kernel_cycles);
}

// ---- session ownership ------------------------------------------------------

TEST(SessionOwnership, TemporaryDesignOutlivesConstruction) {
  // Regression: Session used to hold `const hls::Design&`, so the
  // documented one-liner — constructing straight from core::compile(...) —
  // bound to a dead temporary and every later design() access was UB.
  // Session now owns the design; the pattern below must be safe.
  core::Session session(core::compile(workloads::vecadd(64, 2)));
  std::vector<float> x(64, 1.0f), y(64, 2.0f), z(64, 0.0f);
  session.sim().bind_f32("x", x);
  session.sim().bind_f32("y", y);
  session.sim().bind_f32("z", z);
  const auto r = session.run();
  EXPECT_GT(r.sim.kernel_cycles, 0u);
  for (float v : z) EXPECT_FLOAT_EQ(v, 3.0f);
  // The design is reachable (and alive) after the temporary is gone.
  EXPECT_GT(session.design().fmax_mhz, 0.0);
  EXPECT_GT(session.design().stats.num_threads, 0);
}

TEST(SessionOwnership, SharedDesignServesManySessions) {
  auto design = core::compile_shared(workloads::vecadd(64, 2));
  cycle_t first = 0;
  for (int i = 0; i < 2; ++i) {
    core::Session session(design);
    std::vector<float> x(64, 1.0f), y(64, 2.0f), z(64, 0.0f);
    session.sim().bind_f32("x", x);
    session.sim().bind_f32("y", y);
    session.sim().bind_f32("z", z);
    const auto r = session.run();
    if (i == 0) {
      first = r.sim.kernel_cycles;
    } else {
      EXPECT_EQ(r.sim.kernel_cycles, first);
    }
    EXPECT_EQ(session.design_ptr().get(), design.get());
  }
  EXPECT_GE(design.use_count(), 1);
}

TEST(SessionOwnership, FreshSessionSeesZeroedDram) {
  // A session's DRAM starts zeroed: nothing one job wrote is visible to
  // the next, even at the very address its output buffer had.
  auto design = core::compile_shared(workloads::vecadd(64, 2));
  addr_t z_base = 0;
  {
    core::Session first(design);
    std::vector<float> x(64, 1.0f), y(64, 2.0f), z(64, 0.0f);
    first.sim().bind_f32("x", x);
    first.sim().bind_f32("y", y);
    first.sim().bind_f32("z", z);
    (void)first.run();
    z_base = first.sim().device_base("z");
    ASSERT_EQ(first.sim().memory().read_scalar<float>(z_base), 3.0f);
  }
  core::Session second(design);
  std::vector<float> dram(64, -1.0f);
  second.sim().memory().read_bytes(z_base, dram.data(),
                                   dram.size() * sizeof(float));
  for (float v : dram) EXPECT_EQ(v, 0.0f);
}

}  // namespace
}  // namespace hlsprof
