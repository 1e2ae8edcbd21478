// Differential suite for the simulator's two execution modes: the fast
// path (direct dispatch + batched memory streams, the default) must be
// cycle-exact against the reference event loop
// (SimParams::reference_event_loop) — identical SimResult fields, bitwise
// identical output buffers, and byte-identical Paraver .prv/.pcf/.row
// text — on every example workload and on randomized designs mixing
// thread counts, lock patterns, and barrier/critical interleavings.
// tests/golden/sim_oracle.txt (test_sim_oracle.cpp) pins the values
// themselves.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/hlsprof.hpp"
#include "paraver/writer.hpp"
#include "sim_cases.hpp"
#include "workloads/reference.hpp"
#include "workloads/simple.hpp"

namespace hlsprof {
namespace {

struct ModeRun {
  sim::SimResult sim;
  paraver::ParaverFiles files;
  sim::Simulator::FastPathStats fast;
  sim::Simulator::FastForwardStats ff;
  std::vector<std::vector<float>> outputs;
};

ModeRun run_mode(const std::shared_ptr<const hls::Design>& design,
                 const Binder& bind, const sim::SimParams& base,
                 bool reference) {
  core::RunOptions opts;
  opts.sim = base;
  opts.sim.reference_event_loop = reference;
  core::Session s(design, opts);
  HostBufs bufs;
  bind(s.sim(), bufs);
  core::RunResult r = s.run();
  ModeRun m;
  m.sim = r.sim;
  m.files = paraver::to_paraver(r.timeline, design->kernel.name);
  m.fast = s.sim().fast_path_stats();
  m.ff = s.sim().fast_forward_stats();
  m.outputs = bufs.outputs();
  return m;
}

void expect_same_result(const sim::SimResult& a, const sim::SimResult& b) {
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.kernel_start, b.kernel_start);
  EXPECT_EQ(a.kernel_done, b.kernel_done);
  EXPECT_EQ(a.kernel_cycles, b.kernel_cycles);
  ASSERT_EQ(a.threads.size(), b.threads.size());
  for (std::size_t t = 0; t < a.threads.size(); ++t) {
    EXPECT_EQ(a.threads[t].start, b.threads[t].start) << "thread " << t;
    EXPECT_EQ(a.threads[t].end, b.threads[t].end) << "thread " << t;
    EXPECT_EQ(a.threads[t].stall_cycles, b.threads[t].stall_cycles)
        << "thread " << t;
    EXPECT_EQ(a.threads[t].int_ops, b.threads[t].int_ops) << "thread " << t;
    EXPECT_EQ(a.threads[t].fp_ops, b.threads[t].fp_ops) << "thread " << t;
    EXPECT_EQ(a.threads[t].ext_loads, b.threads[t].ext_loads)
        << "thread " << t;
    EXPECT_EQ(a.threads[t].ext_stores, b.threads[t].ext_stores)
        << "thread " << t;
  }
  ASSERT_EQ(a.transfers.size(), b.transfers.size());
  for (std::size_t i = 0; i < a.transfers.size(); ++i) {
    EXPECT_EQ(a.transfers[i].arg, b.transfers[i].arg);
    EXPECT_EQ(a.transfers[i].begin, b.transfers[i].begin);
    EXPECT_EQ(a.transfers[i].end, b.transfers[i].end);
  }
  EXPECT_EQ(a.dram_reads, b.dram_reads);
  EXPECT_EQ(a.dram_writes, b.dram_writes);
  EXPECT_EQ(a.dram_bytes_read, b.dram_bytes_read);
  EXPECT_EQ(a.dram_bytes_written, b.dram_bytes_written);
  EXPECT_DOUBLE_EQ(a.row_hit_rate, b.row_hit_rate);
}

/// The core assertion: fast and reference runs of the same design agree on
/// every observable — SimResult, output bytes, and Paraver text.
void expect_modes_identical(const SimCase& c) {
  auto design = core::compile_shared(c.kernel());
  const ModeRun fast = run_mode(design, c.bind, c.params, /*reference=*/false);
  const ModeRun ref = run_mode(design, c.bind, c.params, /*reference=*/true);

  expect_same_result(fast.sim, ref.sim);

  ASSERT_EQ(fast.outputs.size(), ref.outputs.size());
  for (std::size_t i = 0; i < fast.outputs.size(); ++i) {
    EXPECT_EQ(fast.outputs[i], ref.outputs[i]) << "output buffer " << i;
  }

  EXPECT_EQ(fast.files.prv, ref.files.prv);
  EXPECT_EQ(fast.files.pcf, ref.files.pcf);
  EXPECT_EQ(fast.files.row, ref.files.row);

  // The reference loop never touches the fast-path machinery.
  EXPECT_EQ(ref.fast.direct_dispatch, 0u);
  EXPECT_EQ(ref.fast.batched_mem, 0u);
}

// ---- Example workloads -----------------------------------------------------

TEST(SimFastPath, VecAddMatchesReference) {
  expect_modes_identical(example_case("vecadd"));
}

TEST(SimFastPath, VectorizedVecAddMatchesReference) {
  expect_modes_identical(example_case("vecadd_v4"));
}

TEST(SimFastPath, DotCriticalReductionMatchesReference) {
  expect_modes_identical(example_case("dot_critical"));
}

TEST(SimFastPath, StencilMatchesReference) {
  expect_modes_identical(example_case("stencil"));
}

TEST(SimFastPath, BarrierPhasesMatchesReference) {
  expect_modes_identical(example_case("barrier_phases"));
}

TEST(SimFastPath, Jacobi2dMatchesReference) {
  expect_modes_identical(example_case("jacobi2d"));
}

TEST(SimFastPath, PiSeriesMatchesReference) {
  expect_modes_identical(example_case("pi"));
}

// Every GEMM version from the paper's optimization journey, including the
// preloader-DMA variant (batched bursts share ExternalMemory::burst with
// the reference loop, so this pins the by-construction equality).
class GemmVersionDiff : public ::testing::TestWithParam<int> {};

TEST_P(GemmVersionDiff, MatchesReference) {
  expect_modes_identical(example_case("gemm_v" + std::to_string(GetParam())));
}

INSTANTIATE_TEST_SUITE_P(AllVersions, GemmVersionDiff,
                         ::testing::Values(0, 1, 2, 3, 4, 5));

// ---- Fast path actually engages -------------------------------------------

TEST(SimFastPath, SingleThreadRunsEntirelyOnFastPath) {
  const std::int64_t n = 256;
  hls::Design d = hls::compile(workloads::vecadd(n, 1, 1));
  sim::Simulator s(d, quick_params(), 1 << 22);
  auto x = workloads::random_vector(n, 81);
  auto y = workloads::random_vector(n, 82);
  std::vector<float> z(static_cast<std::size_t>(n));
  s.bind_f32("x", x);
  s.bind_f32("y", y);
  s.bind_f32("z", z);
  s.run();
  const auto st = s.fast_path_stats();
  // With one thread the heap is empty after its start event pops, so every
  // memory request batches and every other action commits inline.
  EXPECT_GT(st.batched_mem, 0u);
  EXPECT_GT(st.direct_dispatch, 0u);
}

TEST(SimFastPath, MultiThreadStillBatchesAndDispatches) {
  const std::int64_t n = 512;
  hls::Design d = hls::compile(workloads::vecadd(n, 4, 1));
  sim::Simulator s(d, quick_params(), 1 << 22);
  auto x = workloads::random_vector(n, 91);
  auto y = workloads::random_vector(n, 92);
  std::vector<float> z(static_cast<std::size_t>(n));
  s.bind_f32("x", x);
  s.bind_f32("y", y);
  s.bind_f32("z", z);
  s.run();
  const auto st = s.fast_path_stats();
  EXPECT_GT(st.direct_dispatch, 0u);
}

TEST(SimFastPath, ReferenceLoopIgnoresFastForward) {
  // A single-thread GEMM is a steady memory-bound stream that the approx
  // tier jumps over on the fast path; the reference loop runs it exactly.
  const SimCase c = gemm_case(1, 32, 1);
  auto design = core::compile_shared(c.kernel());
  sim::SimParams approx = c.params;
  approx.fast_forward = true;
  ASSERT_GT(run_mode(design, c.bind, approx, false).ff.phases, 0u);

  const ModeRun ref = run_mode(design, c.bind, approx, true);
  const ModeRun exact = run_mode(design, c.bind, c.params, true);
  expect_same_result(ref.sim, exact.sim);
  EXPECT_EQ(ref.outputs, exact.outputs);
  EXPECT_EQ(ref.files.prv, exact.files.prv);
  EXPECT_EQ(ref.fast.direct_dispatch, 0u);
  EXPECT_EQ(ref.fast.batched_mem, 0u);
  EXPECT_EQ(ref.ff.phases, 0u);
  EXPECT_EQ(ref.ff.cycles_skipped, 0u);
  EXPECT_EQ(ref.ff.model_rejects, 0u);
  EXPECT_EQ(ref.ff.model_residual, 0.0);
}

// ---- Randomized designs -----------------------------------------------------

class RandomDesignDiff : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomDesignDiff, MatchesReference) {
  expect_modes_identical(random_case(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDesignDiff,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12));

// Randomized DRAM/host parameters on a fixed contended design: parameter
// changes move accept/complete times around and thus reshuffle the event
// interleaving the fast path must reproduce.
class RandomParamsDiff : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomParamsDiff, DotUnderRandomTimingMatchesReference) {
  expect_modes_identical(random_params_case(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomParamsDiff,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace hlsprof
