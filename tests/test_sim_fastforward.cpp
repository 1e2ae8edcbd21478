// Differential suite for the analytical fast-forward tier
// (SimParams::fast_forward): the approx mode must stay within the
// documented tolerance contract of the exact fast path — total cycles
// and per-thread end times within 0.5%, aggregate state shares within
// 1 percentage point, mean bandwidth within 1% — while the absorbed
// DRAM/op counters stay exactly equal, and it must actually engage
// (ff phases > 0) on steady memory-bound GEMM/stencil phases. Designs
// with no such phase — sync-heavy bodies, pure-compute loops — must run
// bit-identically to the exact mode with zero phases. Randomized
// kernels under randomized DramParams pin the contract away from the
// tuned defaults. State shares and mean bandwidth are read off the
// canonical timeline with paraver::summarize_states / mean_bandwidth,
// the analysis reports use.
#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "core/hlsprof.hpp"
#include "ir/builder.hpp"
#include "paraver/analysis.hpp"
#include "paraver/writer.hpp"
#include "workloads/gemm.hpp"
#include "workloads/pi.hpp"
#include "workloads/reference.hpp"
#include "workloads/simple.hpp"

namespace hlsprof {
namespace {

class HostBufs {
 public:
  std::vector<float>& in(std::vector<float> v) {
    bufs_.push_back(std::move(v));
    return bufs_.back();
  }

 private:
  std::deque<std::vector<float>> bufs_;  // stable addresses across pushes
};

using Binder = std::function<void(sim::Simulator&, HostBufs&)>;

struct ModeRun {
  sim::SimResult sim;
  paraver::StateSummary states;
  double mean_bandwidth = 0.0;
  sim::Simulator::FastForwardStats ff;
  paraver::ParaverFiles files;
};

sim::SimParams quick_params() {
  sim::SimParams p;
  p.host.thread_start_interval = 1000;  // keep tiny workloads fast
  return p;
}

ModeRun run_mode(const std::shared_ptr<const hls::Design>& design,
                 const Binder& bind, const sim::SimParams& base,
                 bool fast_forward) {
  core::RunOptions opts;
  opts.sim = base;
  opts.sim.fast_forward = fast_forward;
  core::Session s(design, opts);
  HostBufs bufs;
  bind(s.sim(), bufs);
  core::RunResult r = s.run();
  ModeRun m;
  m.sim = r.sim;
  m.states = paraver::summarize_states(r.timeline);
  m.mean_bandwidth = paraver::mean_bandwidth(r.timeline);
  m.ff = s.sim().fast_forward_stats();
  m.files = paraver::to_paraver(r.timeline, design->kernel.name);
  return m;
}

void expect_rel_close(double approx, double exact, double tol,
                      const char* what) {
  const double denom = std::max(1.0, std::fabs(exact));
  EXPECT_LE(std::fabs(approx - exact) / denom, tol) << what << ": approx "
                                                    << approx << " vs exact "
                                                    << exact;
}

/// The tolerance contract (docs/PERF.md): approx within 0.5% on cycle
/// totals, 1 point on state shares, 1% on mean bandwidth; op and DRAM
/// counters exactly equal (the census math absorbs skipped work exactly).
void expect_within_contract(const ModeRun& ap, const ModeRun& ex) {
  expect_rel_close(double(ap.sim.total_cycles), double(ex.sim.total_cycles),
                   0.005, "total_cycles");
  ASSERT_EQ(ap.sim.threads.size(), ex.sim.threads.size());
  for (std::size_t t = 0; t < ap.sim.threads.size(); ++t) {
    EXPECT_EQ(ap.sim.threads[t].start, ex.sim.threads[t].start)
        << "thread " << t;
    expect_rel_close(double(ap.sim.threads[t].end),
                     double(ex.sim.threads[t].end), 0.005, "thread end");
    EXPECT_EQ(ap.sim.threads[t].int_ops, ex.sim.threads[t].int_ops)
        << "thread " << t;
    EXPECT_EQ(ap.sim.threads[t].fp_ops, ex.sim.threads[t].fp_ops)
        << "thread " << t;
    EXPECT_EQ(ap.sim.threads[t].ext_loads, ex.sim.threads[t].ext_loads)
        << "thread " << t;
    EXPECT_EQ(ap.sim.threads[t].ext_stores, ex.sim.threads[t].ext_stores)
        << "thread " << t;
  }
  // Kernel-issued requests are absorbed exactly (asserted per thread
  // above), but DRAM totals also include the profiling unit's own
  // trace-writeback traffic, and a synthesized-aggregate trace differs
  // in size from a per-iteration one — so the write side gets slack
  // proportional to that small side channel rather than equality.
  expect_rel_close(double(ap.sim.dram_reads), double(ex.sim.dram_reads),
                   0.01, "dram_reads");
  expect_rel_close(double(ap.sim.dram_writes), double(ex.sim.dram_writes),
                   0.05, "dram_writes");
  expect_rel_close(double(ap.sim.dram_bytes_read),
                   double(ex.sim.dram_bytes_read), 0.01, "dram_bytes_read");
  expect_rel_close(double(ap.sim.dram_bytes_written),
                   double(ex.sim.dram_bytes_written), 0.05,
                   "dram_bytes_written");
  EXPECT_NEAR(ap.states.idle, ex.states.idle, 0.01) << "idle";
  EXPECT_NEAR(ap.states.running, ex.states.running, 0.01) << "running";
  EXPECT_NEAR(ap.states.critical, ex.states.critical, 0.01) << "critical";
  EXPECT_NEAR(ap.states.spinning, ex.states.spinning, 0.01) << "spinning";
  expect_rel_close(ap.mean_bandwidth, ex.mean_bandwidth, 0.01,
                   "mean_bandwidth");
}

/// Exact and approx runs of the same design; returns the approx ff stats
/// so callers can additionally assert engagement.
sim::Simulator::FastForwardStats expect_approx_close(
    ir::Kernel kernel, const Binder& bind,
    const sim::SimParams& base = quick_params()) {
  auto design = core::compile_shared(std::move(kernel));
  const ModeRun ex = run_mode(design, bind, base, /*fast_forward=*/false);
  const ModeRun ap = run_mode(design, bind, base, /*fast_forward=*/true);
  EXPECT_EQ(ex.ff.phases, 0u);  // exact mode never fast-forwards
  expect_within_contract(ap, ex);
  return ap.ff;
}

/// Designs with no steady memory-bound phase must degrade to the exact
/// fast path: zero phases and byte-identical observables.
void expect_approx_identical(ir::Kernel kernel, const Binder& bind,
                             const sim::SimParams& base = quick_params()) {
  auto design = core::compile_shared(std::move(kernel));
  const ModeRun ex = run_mode(design, bind, base, /*fast_forward=*/false);
  const ModeRun ap = run_mode(design, bind, base, /*fast_forward=*/true);
  EXPECT_EQ(ap.ff.phases, 0u);
  EXPECT_EQ(ap.ff.cycles_skipped, 0u);
  EXPECT_EQ(ap.sim.total_cycles, ex.sim.total_cycles);
  EXPECT_EQ(ap.files.prv, ex.files.prv);
  EXPECT_EQ(ap.files.pcf, ex.files.pcf);
  EXPECT_EQ(ap.files.row, ex.files.row);
}

Binder gemm_binder(int dim) {
  return [dim](sim::Simulator& s, HostBufs& h) {
    const std::size_t nn = std::size_t(dim) * std::size_t(dim);
    s.bind_f32("A", h.in(workloads::random_matrix(dim, 11)));
    s.bind_f32("B", h.in(workloads::random_matrix(dim, 22)));
    s.bind_f32("C", h.in(std::vector<float>(nn, 0.0f)));
  };
}

// ---- Memory-bound steady state: must engage and hold the contract ----------

TEST(FastForwardGemm, SingleThreadWithinTolerance) {
  workloads::GemmConfig cfg;
  cfg.dim = 32;
  cfg.threads = 1;
  const auto ff =
      expect_approx_close(workloads::gemm_no_critical(cfg), gemm_binder(32));
  EXPECT_GT(ff.phases, 0u);
  EXPECT_GT(ff.cycles_skipped, 0u);
}

TEST(FastForwardGemm, TwoThreadsWithinTolerance) {
  workloads::GemmConfig cfg;
  cfg.dim = 32;
  cfg.threads = 2;
  // Staggered starts give each thread a solo window below the batching
  // horizon; while the threads overlap, jumps self-decline.
  sim::SimParams p = quick_params();
  p.host.thread_start_interval = 600000;
  const auto ff = expect_approx_close(workloads::gemm_no_critical(cfg),
                                      gemm_binder(32), p);
  EXPECT_GT(ff.phases, 0u);
}

TEST(FastForwardStencil, SingleThreadWithinTolerance) {
  const std::int64_t n = 4096;
  const auto ff = expect_approx_close(
      workloads::stencil3(n, 1), [&](sim::Simulator& s, HostBufs& h) {
        s.bind_f32("x", h.in(workloads::random_vector(n, 41)));
        s.bind_f32("y", h.in(std::vector<float>(std::size_t(n))));
      });
  EXPECT_GT(ff.phases, 0u);
}

// ---- No steady phase: must fall back to exact, bit-identically -------------

TEST(FastForwardSync, PiSeriesBitIdentical) {
  workloads::PiConfig cfg;
  cfg.steps = 4096;
  cfg.threads = 8;
  cfg.unroll = 4;
  // Pure-compute pipelined loop + end-of-kernel critical: no external
  // streams to predict, so approx mode must not engage at all.
  expect_approx_identical(workloads::pi_series(cfg),
                          [&](sim::Simulator& s, HostBufs& h) {
                            s.set_arg("steps", std::int64_t(cfg.steps));
                            s.set_arg("inv_steps", 1.0 / double(cfg.steps));
                            s.bind_f32("out", h.in({0.0f}));
                          });
}

TEST(FastForwardSync, CriticalInsideLoopBitIdentical) {
  // A critical section inside the loop body keeps the loop off the
  // batched executor entirely — the tier never even observes it.
  const std::int64_t n = 256;
  const int threads = 2;
  ir::KernelBuilder kb("sync_heavy", threads);
  auto x = kb.ptr_arg("x", ir::Type::f32(), ir::MapDir::to, n);
  auto acc = kb.ptr_arg("acc", ir::Type::f32(), ir::MapDir::tofrom, 1);
  ir::Val tid = kb.thread_id();
  ir::Val nt = kb.num_threads_val();
  kb.for_loop("i", tid, kb.c32(n), nt, [&](ir::Val i) {
    ir::Val v = kb.load(x, i);
    kb.critical(0, [&] {
      ir::Val zero = kb.c32(0);
      kb.store(acc, zero, kb.load(acc, zero) + v);
    });
  });
  expect_approx_identical(std::move(kb).finish(),
                          [&](sim::Simulator& s, HostBufs& h) {
                            s.bind_f32("x", h.in(workloads::random_vector(n, 7)));
                            s.bind_f32("acc", h.in({0.0f}));
                          });
}

TEST(FastForwardSync, NaiveGemmCriticalWithinTolerance) {
  // gemm_naive merges per-element partial sums under a critical section:
  // the inner k loop is still a plain stream walk, but every j iteration
  // synchronizes. Whatever the tier decides (jump the k loops or decline
  // on the horizon), the contract must hold.
  workloads::GemmConfig cfg;
  cfg.dim = 16;
  cfg.threads = 4;
  expect_approx_close(workloads::gemm_naive(cfg), gemm_binder(16));
}

// ---- Randomized kernels x randomized DRAM timings --------------------------

struct RandCase {
  std::uint64_t seed;
};

class FastForwardRandDiff : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FastForwardRandDiff, WithinToleranceUnderRandomTiming) {
  SplitMix64 rng(GetParam() * 1315423911ull + 17);
  sim::SimParams p = quick_params();
  p.dram.base_latency = 4 + cycle_t(rng.next_below(64));
  p.dram.row_miss_penalty = cycle_t(rng.next_below(48));
  p.dram.num_banks = 1 << rng.next_below(4);  // 1..8
  const int threads = 1 + int(rng.next_below(2));  // 1..2

  switch (rng.next_below(3)) {
    case 0: {
      workloads::GemmConfig cfg;
      cfg.dim = 16 + 16 * int(rng.next_below(2));  // 16 or 32
      cfg.threads = threads;
      expect_approx_close(workloads::gemm_no_critical(cfg),
                          gemm_binder(cfg.dim), p);
      break;
    }
    case 1: {
      const std::int64_t n = 1024 + 1024 * std::int64_t(rng.next_below(3));
      expect_approx_close(
          workloads::stencil3(n, threads),
          [&](sim::Simulator& s, HostBufs& h) {
            s.bind_f32("x", h.in(workloads::random_vector(n, GetParam())));
            s.bind_f32("y", h.in(std::vector<float>(std::size_t(n))));
          },
          p);
      break;
    }
    default: {
      const std::int64_t n = 2048;
      expect_approx_close(
          workloads::vecadd(n, threads, 1),
          [&](sim::Simulator& s, HostBufs& h) {
            s.bind_f32("x", h.in(workloads::random_vector(n, 3)));
            s.bind_f32("y", h.in(workloads::random_vector(n, 4)));
            s.bind_f32("z", h.in(std::vector<float>(std::size_t(n))));
          },
          p);
      break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastForwardRandDiff,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace hlsprof
