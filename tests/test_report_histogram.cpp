// Tests for the HLS textual report and the Paraver-style duration
// histogram analysis.
#include <gtest/gtest.h>

#include "core/hlsprof.hpp"
#include "hls/report.hpp"
#include "paraver/analysis.hpp"
#include "workloads/gemm.hpp"
#include "workloads/reference.hpp"

namespace hlsprof {
namespace {

using sim::ThreadState;

TEST(HlsReport, ContainsLoopTableAndResources) {
  workloads::GemmConfig cfg;
  cfg.dim = 32;
  hls::Design d = core::compile(workloads::gemm_naive(cfg));
  const std::string r = hls::report(d);
  EXPECT_NE(r.find("kernel 'gemm_v1_naive'"), std::string::npos);
  EXPECT_NE(r.find("pipelined"), std::string::npos);
  EXPECT_NE(r.find("sequential"), std::string::npos);
  EXPECT_NE(r.find("rec-II"), std::string::npos);
  EXPECT_NE(r.find("fmax estimate"), std::string::npos);
  EXPECT_NE(r.find("critical yes"), std::string::npos);
  // One row per loop.
  const auto count = [&](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t p = r.find(needle); p != std::string::npos;
         p = r.find(needle, p + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count("pipelined") + count("sequential"),
            std::size_t(d.kernel.num_loops));
}

trace::TimedTrace synth() {
  trace::TimedTrace t;
  t.num_threads = 2;
  t.duration = 1000;
  t.thread_states.resize(2);
  t.thread_states[0] = {{ThreadState::idle, 0, 100},
                        {ThreadState::running, 100, 900},   // 800 cycles
                        {ThreadState::spinning, 900, 903},  // 3
                        {ThreadState::idle, 903, 1000}};
  t.thread_states[1] = {{ThreadState::spinning, 0, 64},  // 64
                        {ThreadState::running, 64, 1000}};
  return t;
}

TEST(Histogram, BucketsByLog2Duration) {
  const auto h = paraver::state_duration_histogram(synth(),
                                                   ThreadState::spinning);
  EXPECT_EQ(h.total_intervals, 2);
  EXPECT_EQ(h.total_cycles, 67u);
  EXPECT_EQ(h.min_duration, 3u);
  EXPECT_EQ(h.max_duration, 64u);
  // 3 cycles -> bucket 1 ([2,4)); 64 cycles -> bucket 6 ([64,128)).
  ASSERT_GE(h.log2_buckets.size(), 7u);
  EXPECT_EQ(h.log2_buckets[1], 1);
  EXPECT_EQ(h.log2_buckets[6], 1);
}

TEST(Histogram, EmptyForAbsentState) {
  const auto h = paraver::state_duration_histogram(synth(),
                                                   ThreadState::critical);
  EXPECT_EQ(h.total_intervals, 0);
  EXPECT_TRUE(h.log2_buckets.empty());
}

TEST(Histogram, RealTraceSpinDurations) {
  workloads::GemmConfig cfg;
  cfg.dim = 32;
  hls::Design d = core::compile(workloads::gemm_naive(cfg));
  core::RunOptions opts;
  opts.sim.host.thread_start_interval = 100;
  core::Session s(std::move(d), opts);
  auto a = workloads::random_matrix(cfg.dim, 1);
  auto b = workloads::random_matrix(cfg.dim, 2);
  std::vector<float> c(std::size_t(cfg.dim) * std::size_t(cfg.dim), 0.0f);
  s.sim().bind_f32("A", a);
  s.sim().bind_f32("B", b);
  s.sim().bind_f32("C", c);
  const auto r = s.run();
  const auto h = paraver::state_duration_histogram(r.timeline,
                                                   ThreadState::critical);
  EXPECT_GT(h.total_intervals, 0);
  cycle_t sum = 0;
  for (std::size_t i = 0; i < h.log2_buckets.size(); ++i) {
    sum += cycle_t(h.log2_buckets[i]);
  }
  EXPECT_EQ(sum, cycle_t(h.total_intervals));
  EXPECT_EQ(h.total_cycles, r.timeline.state_cycles(ThreadState::critical));
}

}  // namespace
}  // namespace hlsprof
