// Property-style parameterized sweeps: invariants that must hold across
// whole parameter ranges of the models (monotonicity, conservation,
// round-trip identities), exercised with TEST_P.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/hlsprof.hpp"
#include "paraver/reader.hpp"
#include "paraver/writer.hpp"
#include "state_words.hpp"
#include "trace/records.hpp"
#include "workloads/pi.hpp"
#include "workloads/reference.hpp"
#include "workloads/simple.hpp"

namespace hlsprof {
namespace {

sim::SimParams fast_params() {
  sim::SimParams p;
  p.host.thread_start_interval = 100;
  return p;
}

cycle_t vecadd_cycles(const sim::SimParams& p, int threads = 4,
                      std::int64_t n = 2048) {
  hls::Design d = hls::compile(workloads::vecadd(n, threads, 1));
  sim::Simulator sim(d, p, 1 << 22);
  auto x = workloads::random_vector(n, 1);
  auto y = workloads::random_vector(n, 2);
  std::vector<float> z(static_cast<std::size_t>(n));
  sim.bind_f32("x", x);
  sim.bind_f32("y", y);
  sim.bind_f32("z", z);
  return sim.run().kernel_cycles;
}

// ---- DRAM model monotonicity --------------------------------------------------

class DramLatencySweep : public ::testing::TestWithParam<int> {};

TEST_P(DramLatencySweep, CyclesNonDecreasingInBaseLatency) {
  // Single-threaded: with multiple threads, contention phase-alignment can
  // make latency effects non-monotonic (a real phenomenon the simulator
  // reproduces); the single-thread path must be strictly well-behaved.
  sim::SimParams lo = fast_params();
  sim::SimParams hi = fast_params();
  lo.dram.base_latency = cycle_t(GetParam());
  hi.dram.base_latency = cycle_t(GetParam() + 8);
  EXPECT_LE(vecadd_cycles(lo, 1), vecadd_cycles(hi, 1));
}

INSTANTIATE_TEST_SUITE_P(BaseLatencies, DramLatencySweep,
                         ::testing::Values(4, 8, 16, 32, 64));

TEST(DramSweep, CyclesNonDecreasingInMissPenalty) {
  cycle_t prev = 0;
  for (cycle_t pen : {0u, 8u, 16u, 32u}) {
    sim::SimParams p = fast_params();
    p.dram.row_miss_penalty = pen;
    const cycle_t c = vecadd_cycles(p, /*threads=*/1);
    EXPECT_GE(c, prev) << pen;
    prev = c;
  }
}

TEST(DramSweep, MoreBanksNeverSlower) {
  sim::SimParams one = fast_params();
  one.dram.num_banks = 1;
  sim::SimParams four = fast_params();
  four.dram.num_banks = 4;
  EXPECT_GE(vecadd_cycles(one), vecadd_cycles(four));
}

// ---- scheduler invariants -------------------------------------------------------

class FaddLatencySweep : public ::testing::TestWithParam<int> {};

TEST_P(FaddLatencySweep, ReductionIIEqualsFaddLatency) {
  hls::HlsOptions opts;
  opts.lib.lat_fadd = GetParam();
  hls::Design d =
      hls::compile(workloads::pi_series(workloads::PiConfig{}), opts);
  EXPECT_EQ(d.loop(0).rec_ii, GetParam());
  EXPECT_GE(d.loop(0).ii, GetParam());
}

INSTANTIATE_TEST_SUITE_P(FaddLatencies, FaddLatencySweep,
                         ::testing::Values(1, 2, 3, 4, 6, 8));

TEST(SchedulerSweep, AssumedMinDoesNotChangeTotalLatencyMuch) {
  // Raising the scheduler's assumed VLO minimum converts stall cycles into
  // scheduled cycles; end-to-end time must stay within a small factor.
  sim::SimParams p = fast_params();
  hls::HlsOptions a;
  a.lib.ext_assumed_min = 4;
  hls::HlsOptions b;
  b.lib.ext_assumed_min = 16;
  auto run = [&](const hls::HlsOptions& o) {
    hls::Design d = hls::compile(workloads::vecadd(2048, 4, 1), o);
    sim::Simulator sim(d, p, 1 << 22);
    auto x = workloads::random_vector(2048, 1);
    auto y = workloads::random_vector(2048, 2);
    std::vector<float> z(2048);
    sim.bind_f32("x", x);
    sim.bind_f32("y", y);
    sim.bind_f32("z", z);
    return double(sim.run().kernel_cycles);
  };
  const double ca = run(a);
  const double cb = run(b);
  EXPECT_LT(std::abs(ca - cb) / ca, 0.25);
}

// ---- host model ----------------------------------------------------------------

class StartIntervalSweep : public ::testing::TestWithParam<int> {};

TEST_P(StartIntervalSweep, KernelCyclesGrowWithStartInterval) {
  // Only asserted where the stagger dominates the kernel's work: for very
  // small intervals, de-synchronizing the threads can *reduce* memory
  // contention and run faster — an emergent effect the simulator shows
  // (and a reason the paper's start overhead is not purely wasted time).
  sim::SimParams p = fast_params();
  p.host.thread_start_interval = cycle_t(GetParam());
  sim::SimParams p2 = p;
  p2.host.thread_start_interval = cycle_t(GetParam() * 2);
  EXPECT_LT(vecadd_cycles(p, 8), vecadd_cycles(p2, 8));
}

INSTANTIATE_TEST_SUITE_P(Intervals, StartIntervalSweep,
                         ::testing::Values(5000, 10000, 50000));

// ---- semaphore ------------------------------------------------------------------

TEST(SemaphoreSweep, HandoffLatencyGrowsCriticalTime) {
  auto crit_cycles = [&](cycle_t handoff) {
    sim::SimParams p = fast_params();
    p.host.thread_start_interval = 1;  // all threads contend at once
    p.sem.handoff_latency = handoff;
    hls::Design d = hls::compile(workloads::dot(960, 8));
    core::RunOptions opts;
    opts.sim = p;
    core::Session s(std::move(d), opts);
    auto x = workloads::random_vector(960, 3);
    auto y = workloads::random_vector(960, 4);
    std::vector<float> out(1, 0.0f);
    s.sim().bind_f32("x", x);
    s.sim().bind_f32("y", y);
    s.sim().bind_f32("out", out);
    const auto r = s.run();
    return r.timeline.state_cycles(sim::ThreadState::spinning);
  };
  EXPECT_LT(crit_cycles(4), crit_cycles(64));
}

// ---- tracer conservation ------------------------------------------------------------

class SamplingPeriodSweep : public ::testing::TestWithParam<int> {};

TEST_P(SamplingPeriodSweep, EventTotalsInvariantAcrossPeriods) {
  // The sampling period redistributes counts across windows but must
  // conserve the totals of exact counters (bytes, stalls).
  auto totals = [&](cycle_t period) {
    hls::Design d = hls::compile(workloads::dot(480, 4));
    core::RunOptions opts;
    opts.sim = fast_params();
    opts.profiling.sampling_period = period;
    core::Session s(std::move(d), opts);
    auto x = workloads::random_vector(480, 3);
    auto y = workloads::random_vector(480, 4);
    std::vector<float> out(1, 0.0f);
    s.sim().bind_f32("x", x);
    s.sim().bind_f32("y", y);
    s.sim().bind_f32("out", out);
    const auto r = s.run();
    return std::make_pair(
        r.timeline.event_total(trace::EventKind::bytes_read),
        r.timeline.event_total(trace::EventKind::stall_cycles));
  };
  const auto base = totals(64);
  const auto other = totals(cycle_t(GetParam()));
  EXPECT_EQ(base.first, other.first);
  EXPECT_EQ(base.second, other.second);
}

INSTANTIATE_TEST_SUITE_P(Periods, SamplingPeriodSweep,
                         ::testing::Values(128, 512, 4096, 32768));

class BufferDepthSweep : public ::testing::TestWithParam<int> {};

TEST_P(BufferDepthSweep, DecodedRecordsInvariantAcrossBufferDepth) {
  // The buffer depth changes when records are flushed, not what they say.
  auto records = [&](int lines) {
    hls::Design d = hls::compile(workloads::dot(480, 2));
    core::RunOptions opts;
    opts.sim = fast_params();
    opts.profiling.buffer_lines = lines;
    core::Session s(std::move(d), opts);
    auto x = workloads::random_vector(480, 3);
    auto y = workloads::random_vector(480, 4);
    std::vector<float> out(1, 0.0f);
    s.sim().bind_f32("x", x);
    s.sim().bind_f32("y", y);
    s.sim().bind_f32("out", out);
    const auto r = s.run();
    return std::make_pair(r.state_records, r.event_records);
  };
  // Note: flush traffic perturbs arbitration slightly, so the *timing* may
  // change; the record structure must stay equivalent within a few state
  // transitions.
  const auto base = records(64);
  const auto other = records(GetParam());
  EXPECT_NEAR(double(other.first), double(base.first),
              0.05 * double(base.first) + 4);
  EXPECT_NEAR(double(other.second), double(base.second),
              0.05 * double(base.second) + 8);
}

INSTANTIATE_TEST_SUITE_P(Depths, BufferDepthSweep,
                         ::testing::Values(8, 16, 256, 1024));

// ---- round-trip identities ---------------------------------------------------------

class RoundTripSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoundTripSweep, RandomTraceSurvivesParaverRoundTrip) {
  SplitMix64 rng(GetParam());
  trace::TimedTrace t;
  t.num_threads = 1 + int(rng.next_below(8));
  t.duration = 1000 + cycle_t(rng.next_below(100000));
  t.sampling_period = 100;
  t.thread_states.resize(std::size_t(t.num_threads));
  for (int th = 0; th < t.num_threads; ++th) {
    cycle_t pos = 0;
    while (pos < t.duration) {
      const cycle_t len =
          std::min<cycle_t>(1 + rng.next_below(5000), t.duration - pos);
      t.thread_states[std::size_t(th)].push_back(trace::StateInterval{
          sim::ThreadState(rng.next_below(4)), pos, pos + len});
      pos += len;
    }
  }
  for (int i = 0; i < 50; ++i) {
    t.events.push_back(trace::EventSample{
        trace::EventKind(1 + rng.next_below(5)),
        thread_id_t(rng.next_below(std::uint64_t(t.num_threads))),
        rng.next_below(t.duration), rng.next()});
  }
  const auto files = paraver::to_paraver(t, "prop");
  const auto parsed = paraver::parse_prv(files.prv);
  ASSERT_EQ(parsed.trace.num_threads, t.num_threads);
  EXPECT_EQ(parsed.trace.duration, t.duration);
  for (int th = 0; th < t.num_threads; ++th) {
    ASSERT_EQ(parsed.trace.thread_states[std::size_t(th)].size(),
              t.thread_states[std::size_t(th)].size());
  }
  ASSERT_EQ(parsed.trace.events.size(), t.events.size());
  for (std::size_t i = 0; i < t.events.size(); ++i) {
    EXPECT_EQ(parsed.trace.events[i].value, t.events[i].value);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

class EncoderRoundTripSweep : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(EncoderRoundTripSweep, RandomRecordStreamsSurviveLineEncoding) {
  SplitMix64 rng(GetParam());
  const int threads = 1 + int(rng.next_below(16));
  trace::LineEncoder enc(threads);
  std::vector<trace::EventRecord> sent_events;
  std::vector<std::vector<std::uint8_t>> sent_states;
  std::uint32_t clock = 0;
  for (int i = 0; i < 500; ++i) {
    clock += std::uint32_t(rng.next_below(1000));
    if (rng.next_below(2) == 0) {
      std::vector<std::uint8_t> st(static_cast<std::size_t>(threads));
      for (auto& s : st) s = std::uint8_t(rng.next_below(4));
      enc.append_state(clock, pack_states(st));
      sent_states.push_back(std::move(st));
    } else {
      trace::EventRecord er;
      er.kind = trace::EventKind(1 + rng.next_below(5));
      er.thread = std::uint8_t(rng.next_below(std::uint64_t(threads)));
      er.clock32 = clock;
      er.value = rng.next();
      enc.append_event(er);
      sent_events.push_back(er);
    }
  }
  std::vector<std::uint8_t> lines;
  enc.take_lines(lines);
  const auto decoded = trace::decode_lines(lines.data(), lines.size(),
                                           threads);
  ASSERT_EQ(decoded.states.size(), sent_states.size());
  ASSERT_EQ(decoded.events.size(), sent_events.size());
  for (std::size_t i = 0; i < sent_states.size(); ++i) {
    EXPECT_EQ(unpack_states(decoded.states[i].states, threads),
              sent_states[i]);
  }
  for (std::size_t i = 0; i < sent_events.size(); ++i) {
    EXPECT_EQ(decoded.events[i].value, sent_events[i].value);
    EXPECT_EQ(decoded.events[i].thread, sent_events[i].thread);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EncoderRoundTripSweep,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u));

}  // namespace
}  // namespace hlsprof
