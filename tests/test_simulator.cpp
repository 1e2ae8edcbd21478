// System-level simulator tests: whole-kernel correctness, host model
// (transfers, staggered thread starts), timing invariants, determinism,
// error handling, and multi-threaded synchronization.
#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"
#include "hls/compiler.hpp"
#include "sim/simulator.hpp"
#include "workloads/reference.hpp"
#include "workloads/simple.hpp"

namespace hlsprof::sim {
namespace {

using ir::KernelBuilder;
using ir::MapDir;
using ir::Type;
using ir::Val;

SimParams fast_params() {
  SimParams p;
  p.host.thread_start_interval = 200;
  return p;
}

// ---- vecadd across threads/lanes (parameterized) ---------------------------

struct VecAddCase {
  int threads;
  int lanes;
};

class VecAddTest : public ::testing::TestWithParam<VecAddCase> {};

TEST_P(VecAddTest, ComputesCorrectSum) {
  const auto [threads, lanes] = GetParam();
  const std::int64_t n = 256;
  hls::Design d = hls::compile(workloads::vecadd(n, threads, lanes));
  Simulator sim(d, fast_params(), 1 << 20);
  auto x = workloads::random_vector(n, 1);
  auto y = workloads::random_vector(n, 2);
  std::vector<float> z(std::size_t(n), -1.0f);
  sim.bind_f32("x", x);
  sim.bind_f32("y", y);
  sim.bind_f32("z", z);
  const SimResult r = sim.run();
  for (std::size_t i = 0; i < std::size_t(n); ++i) {
    ASSERT_FLOAT_EQ(z[i], x[i] + y[i]) << i;
  }
  EXPECT_EQ(r.threads.size(), std::size_t(threads));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, VecAddTest,
    ::testing::Values(VecAddCase{1, 1}, VecAddCase{2, 1}, VecAddCase{8, 1},
                      VecAddCase{1, 4}, VecAddCase{4, 4}, VecAddCase{8, 8}),
    [](const auto& info) {
      return "t" + std::to_string(info.param.threads) + "_l" +
             std::to_string(info.param.lanes);
    });

// ---- dot product: critical-section reduction ---------------------------------

class DotTest : public ::testing::TestWithParam<int> {};

TEST_P(DotTest, CriticalReductionIsRaceFree) {
  const int threads = GetParam();
  const std::int64_t n = 240;
  hls::Design d = hls::compile(workloads::dot(n, threads));
  Simulator sim(d, fast_params(), 1 << 20);
  auto x = workloads::random_vector(n, 3);
  auto y = workloads::random_vector(n, 4);
  std::vector<float> out(1, 0.0f);
  sim.bind_f32("x", x);
  sim.bind_f32("y", y);
  sim.bind_f32("out", out);
  sim.run();
  double ref = 0;
  for (std::size_t i = 0; i < std::size_t(n); ++i) {
    ref += double(x[i]) * double(y[i]);
  }
  EXPECT_NEAR(out[0], ref, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Threads, DotTest, ::testing::Values(1, 2, 3, 4, 8));

// ---- stencil -------------------------------------------------------------------

TEST(SimulatorKernels, Stencil3) {
  const std::int64_t n = 64;
  hls::Design d = hls::compile(workloads::stencil3(n, 4));
  Simulator sim(d, fast_params(), 1 << 20);
  auto x = workloads::random_vector(n, 5);
  std::vector<float> y(std::size_t(n), -1.0f);
  sim.bind_f32("x", x);
  sim.bind_f32("y", y);
  sim.run();
  EXPECT_FLOAT_EQ(y[0], x[0]);
  EXPECT_FLOAT_EQ(y[std::size_t(n - 1)], x[std::size_t(n - 1)]);
  for (std::size_t i = 1; i + 1 < std::size_t(n); ++i) {
    const float expect =
        (x[i - 1] + x[i] + x[i + 1]) * float(double(1.0 / 3.0));
    ASSERT_FLOAT_EQ(y[i], expect) << i;
  }
}

// ---- barrier ---------------------------------------------------------------------

TEST(SimulatorKernels, BarrierOrdersPhases) {
  const std::int64_t n = 64;
  hls::Design d = hls::compile(workloads::barrier_phases(n, 4));
  Simulator sim(d, fast_params(), 1 << 20);
  auto x = workloads::random_vector(n, 6);
  std::vector<float> w(std::size_t(n), -1.0f);
  sim.bind_f32("x", x);
  sim.bind_f32("w", w);
  sim.run();
  for (std::size_t i = 0; i < std::size_t(n); ++i) {
    ASSERT_FLOAT_EQ(w[i], x[(i + 1) % std::size_t(n)] * 2.0f) << i;
  }
}

// ---- jacobi 2D (barrier-synchronized ping-pong) -------------------------------

class Jacobi2dTest : public ::testing::TestWithParam<int> {};

TEST_P(Jacobi2dTest, MatchesReferenceAcrossThreadCounts) {
  const int threads = GetParam();
  const int n = 24;
  const int iters = 4;
  hls::Design d = hls::compile(workloads::jacobi2d(n, iters, threads));
  Simulator sim(d, fast_params(), 1 << 22);
  auto u = workloads::random_vector(std::int64_t(n) * n, 9, 0.0f, 1.0f);
  const auto ref = workloads::jacobi2d_reference(u, n, iters);
  sim.bind_f32("u", u);
  sim.run();
  EXPECT_LT(workloads::max_rel_error(u, ref), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Threads, Jacobi2dTest,
                         ::testing::Values(1, 2, 4, 8));

TEST(SimulatorKernels, Jacobi2dConvergesTowardMean) {
  // Property: repeated relaxation smooths the grid (interior variance
  // shrinks monotonically with more sweeps).
  const int n = 16;
  auto variance_after = [&](int iters) {
    hls::Design d = hls::compile(workloads::jacobi2d(n, iters, 4));
    Simulator sim(d, fast_params(), 1 << 22);
    auto u = workloads::random_vector(std::int64_t(n) * n, 10, 0.0f, 1.0f);
    sim.bind_f32("u", u);
    sim.run();
    double mean = 0;
    for (int i = 1; i + 1 < n; ++i) {
      for (int j = 1; j + 1 < n; ++j) mean += u[std::size_t(i * n + j)];
    }
    mean /= double((n - 2) * (n - 2));
    double var = 0;
    for (int i = 1; i + 1 < n; ++i) {
      for (int j = 1; j + 1 < n; ++j) {
        const double dev = u[std::size_t(i * n + j)] - mean;
        var += dev * dev;
      }
    }
    return var;
  };
  EXPECT_LT(variance_after(8), variance_after(2));
}

// ---- host model -------------------------------------------------------------------

TEST(HostModel, ThreadStartsAreStaggered) {
  hls::Design d = hls::compile(workloads::vecadd(256, 8, 1));
  SimParams p = fast_params();
  p.host.thread_start_interval = 1000;
  Simulator sim(d, p, 1 << 20);
  auto x = workloads::random_vector(256, 1);
  auto y = workloads::random_vector(256, 2);
  std::vector<float> z(256);
  sim.bind_f32("x", x);
  sim.bind_f32("y", y);
  sim.bind_f32("z", z);
  const SimResult r = sim.run();
  for (std::size_t t = 1; t < r.threads.size(); ++t) {
    EXPECT_EQ(r.threads[t].start - r.threads[t - 1].start, 1000u);
  }
  EXPECT_GT(r.threads[0].start, r.kernel_start);
}

TEST(HostModel, TransfersExtendTotalCycles) {
  hls::Design d = hls::compile(workloads::vecadd(1024, 2, 1));
  Simulator sim(d, fast_params(), 1 << 20);
  auto x = workloads::random_vector(1024, 1);
  auto y = workloads::random_vector(1024, 2);
  std::vector<float> z(1024);
  sim.bind_f32("x", x);
  sim.bind_f32("y", y);
  sim.bind_f32("z", z);
  const SimResult r = sim.run();
  EXPECT_GT(r.kernel_start, 0u);           // map(to) took time
  EXPECT_GT(r.total_cycles, r.kernel_done);  // map(from) took time
  EXPECT_EQ(r.kernel_cycles, r.kernel_done - r.kernel_start);
}

TEST(HostModel, MapToNotCopiedBack) {
  // A kernel that overwrites its map(to) input on the device: the host
  // copy must be untouched.
  KernelBuilder kb("mapto", 1);
  auto x = kb.ptr_arg("x", Type::f32(), MapDir::to, 4);
  kb.store(x, kb.c32(0), kb.cf32(99.0));
  hls::Design d = hls::compile(std::move(kb).finish());
  Simulator sim(d, fast_params(), 1 << 20);
  std::vector<float> host{1, 2, 3, 4};
  sim.bind_f32("x", host);
  sim.run();
  EXPECT_FLOAT_EQ(host[0], 1.0f);
}

TEST(HostModel, MapFromNotCopiedIn) {
  // map(from) buffers start zeroed on the device regardless of host data.
  KernelBuilder kb("mapfrom", 1);
  auto x = kb.ptr_arg("x", Type::f32(), MapDir::from, 2);
  kb.store(x, kb.c32(1), kb.load(x, kb.c32(0)) + 1.0);
  hls::Design d = hls::compile(std::move(kb).finish());
  Simulator sim(d, fast_params(), 1 << 20);
  std::vector<float> host{55.0f, -1.0f};
  sim.bind_f32("x", host);
  sim.run();
  EXPECT_FLOAT_EQ(host[1], 1.0f);  // device saw 0, not 55
}

// ---- error handling ------------------------------------------------------------------

TEST(SimulatorErrors, UnboundPointerArgRejected) {
  hls::Design d = hls::compile(workloads::vecadd(64, 1, 1));
  Simulator sim(d, fast_params(), 1 << 20);
  auto x = workloads::random_vector(64, 1);
  sim.bind_f32("x", x);
  EXPECT_THROW(sim.run(), Error);
}

TEST(SimulatorErrors, UnsetScalarArgRejected) {
  KernelBuilder kb("s", 1);
  auto out = kb.ptr_arg("out", Type::i32(), MapDir::from, 1);
  Val n = kb.i32_arg("n");
  kb.store(out, kb.c32(0), n);
  hls::Design d = hls::compile(std::move(kb).finish());
  Simulator sim(d, fast_params(), 1 << 20);
  std::vector<std::int32_t> o(1);
  sim.bind_i32("out", o);
  EXPECT_THROW(sim.run(), Error);
}

TEST(SimulatorErrors, WrongTypeBindingRejected) {
  hls::Design d = hls::compile(workloads::vecadd(64, 1, 1));
  Simulator sim(d, fast_params(), 1 << 20);
  std::vector<std::int32_t> wrong(64);
  EXPECT_THROW(sim.bind_i32("x", wrong), Error);
}

TEST(SimulatorErrors, TooSmallBufferRejected) {
  hls::Design d = hls::compile(workloads::vecadd(64, 1, 1));
  Simulator sim(d, fast_params(), 1 << 20);
  std::vector<float> tiny(8);
  EXPECT_THROW(sim.bind_f32("x", tiny), Error);
}

TEST(SimulatorErrors, UnknownArgNameRejected) {
  hls::Design d = hls::compile(workloads::vecadd(64, 1, 1));
  Simulator sim(d, fast_params(), 1 << 20);
  std::vector<float> buf(64);
  EXPECT_THROW(sim.bind_f32("nope", buf), Error);
  EXPECT_THROW(sim.device_base("nope"), Error);
  EXPECT_THROW(sim.set_arg("nope", std::int64_t(1)), Error);
}

TEST(SimulatorErrors, CycleLimitGuards) {
  hls::Design d = hls::compile(workloads::vecadd(256, 2, 1));
  SimParams p = fast_params();
  p.max_cycles = 100;  // far too small
  Simulator sim(d, p, 1 << 20);
  auto x = workloads::random_vector(256, 1);
  auto y = workloads::random_vector(256, 2);
  std::vector<float> z(256);
  sim.bind_f32("x", x);
  sim.bind_f32("y", y);
  sim.bind_f32("z", z);
  EXPECT_THROW(sim.run(), Error);
}

TEST(SimulatorErrors, CycleLimitNamesThreadAndCycle) {
  // One thread: the fast loop commits its requests on the batched paths,
  // the reference loop through the event heap; both name the thread, the
  // cycle it reached and the limit.
  hls::Design d = hls::compile(workloads::vecadd(256, 1, 1));
  for (bool reference : {false, true}) {
    SimParams p = fast_params();
    p.reference_event_loop = reference;
    p.max_cycles = 100;
    Simulator sim(d, p, 1 << 20);
    auto x = workloads::random_vector(256, 1);
    auto y = workloads::random_vector(256, 2);
    std::vector<float> z(256);
    sim.bind_f32("x", x);
    sim.bind_f32("y", y);
    sim.bind_f32("z", z);
    try {
      sim.run();
      ADD_FAILURE() << "run past max_cycles did not fail";
    } catch (const Error& e) {
      const std::string msg = e.what();
      const std::string head =
          "simulation exceeded max_cycles (livelock guard): thread 0 "
          "reached cycle ";
      ASSERT_EQ(msg.rfind(head, 0), 0u) << msg;
      const std::size_t comma = msg.find(',', head.size());
      ASSERT_NE(comma, std::string::npos) << msg;
      EXPECT_GT(std::stoull(msg.substr(head.size(), comma - head.size())),
                100u)
          << msg;
      EXPECT_EQ(msg.substr(comma), ", past the limit of 100") << msg;
    }
  }
}

// ---- timing invariants ------------------------------------------------------------------

TEST(SimulatorTiming, Deterministic) {
  auto run_once = [] {
    hls::Design d = hls::compile(workloads::dot(240, 8));
    Simulator sim(d, fast_params(), 1 << 20);
    auto x = workloads::random_vector(240, 3);
    auto y = workloads::random_vector(240, 4);
    std::vector<float> out(1);
    sim.bind_f32("x", x);
    sim.bind_f32("y", y);
    sim.bind_f32("out", out);
    return sim.run().total_cycles;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(SimulatorTiming, MoreWorkTakesLonger) {
  auto cycles_for = [](std::int64_t n) {
    hls::Design d = hls::compile(workloads::vecadd(n, 2, 1));
    Simulator sim(d, fast_params(), 1 << 22);
    auto x = workloads::random_vector(n, 1);
    auto y = workloads::random_vector(n, 2);
    std::vector<float> z(static_cast<std::size_t>(n));
    sim.bind_f32("x", x);
    sim.bind_f32("y", y);
    sim.bind_f32("z", z);
    return sim.run().kernel_cycles;
  };
  EXPECT_GT(cycles_for(4096), cycles_for(256));
}

TEST(SimulatorTiming, StallsRecordedForExternalTraffic) {
  hls::Design d = hls::compile(workloads::vecadd(1024, 4, 1));
  Simulator sim(d, fast_params(), 1 << 22);
  auto x = workloads::random_vector(1024, 1);
  auto y = workloads::random_vector(1024, 2);
  std::vector<float> z(1024);
  sim.bind_f32("x", x);
  sim.bind_f32("y", y);
  sim.bind_f32("z", z);
  const SimResult r = sim.run();
  EXPECT_GT(r.total_stall_cycles(), 0u);
  EXPECT_GT(r.dram_reads, 0);
  EXPECT_GT(r.dram_bytes_read, 0);
  EXPECT_GE(r.row_hit_rate, 0.0);
  EXPECT_LE(r.row_hit_rate, 1.0);
}

TEST(SimulatorTiming, PerThreadStatsConsistent) {
  hls::Design d = hls::compile(workloads::dot(240, 4));
  Simulator sim(d, fast_params(), 1 << 20);
  auto x = workloads::random_vector(240, 3);
  auto y = workloads::random_vector(240, 4);
  std::vector<float> out(1);
  sim.bind_f32("x", x);
  sim.bind_f32("y", y);
  sim.bind_f32("out", out);
  const SimResult r = sim.run();
  long long loads = 0;
  for (const auto& t : r.threads) {
    EXPECT_GE(t.end, t.start);
    loads += t.ext_loads;
    EXPECT_GT(t.fp_ops, 0);
  }
  // dot loads x[i] and y[i] once per element, plus one out-load per thread.
  EXPECT_EQ(loads, 2 * 240 + 4);
}

TEST(SimulatorTiming, FunctionalOffStillTimesAndCountsOps) {
  hls::Design d = hls::compile(workloads::dot(240, 2));
  SimParams p = fast_params();
  p.functional = false;
  Simulator sim(d, p, 1 << 20);
  auto x = workloads::random_vector(240, 3);
  auto y = workloads::random_vector(240, 4);
  std::vector<float> out(1);
  sim.bind_f32("x", x);
  sim.bind_f32("y", y);
  sim.bind_f32("out", out);
  const SimResult r = sim.run();
  EXPECT_GT(r.kernel_cycles, 0u);
  EXPECT_GT(r.total_fp_ops(), 0);
}

TEST(SimulatorTiming, CSlowModeSlower) {
  auto cycles_with = [](bool reordering) {
    hls::HlsOptions opts;
    opts.thread_reordering = reordering;
    hls::Design d = hls::compile(workloads::vecadd(2048, 8, 1), opts);
    Simulator sim(d, fast_params(), 1 << 22);
    auto x = workloads::random_vector(2048, 1);
    auto y = workloads::random_vector(2048, 2);
    std::vector<float> z(2048);
    sim.bind_f32("x", x);
    sim.bind_f32("y", y);
    sim.bind_f32("z", z);
    return sim.run().kernel_cycles;
  };
  EXPECT_GT(cycles_with(false), cycles_with(true));
}

}  // namespace
}  // namespace hlsprof::sim
