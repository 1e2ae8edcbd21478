// Unit tests for the timeline reconstruction (src/trace/timed_trace.*).
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "state_words.hpp"
#include "trace/timed_trace.hpp"

namespace hlsprof::trace {
namespace {

using sim::ThreadState;

DecodedTrace make_decoded(
    const std::vector<std::pair<cycle_t, std::vector<std::uint8_t>>>& recs) {
  DecodedTrace d;
  for (const auto& [t, st] : recs) {
    StateRecord r;
    r.clock32 = std::uint32_t(t);
    r.states = pack_states(st);
    d.states.push_back(r);
    d.state_clocks.push_back(t);
  }
  return d;
}

TEST(TimedTrace, SingleThreadIntervals) {
  // idle @0, running @10, idle @50; run ends at 60.
  const auto d = make_decoded({{0, {0}}, {10, {1}}, {50, {0}}});
  const TimedTrace t = build_timed_trace(d, 1, 60, 0);
  ASSERT_EQ(t.thread_states.size(), 1u);
  const auto& iv = t.thread_states[0];
  ASSERT_EQ(iv.size(), 3u);
  EXPECT_EQ(iv[0].state, ThreadState::idle);
  EXPECT_EQ(iv[0].begin, 0u);
  EXPECT_EQ(iv[0].end, 10u);
  EXPECT_EQ(iv[1].state, ThreadState::running);
  EXPECT_EQ(iv[1].end, 50u);
  EXPECT_EQ(iv[2].state, ThreadState::idle);
  EXPECT_EQ(iv[2].end, 60u);
  EXPECT_EQ(t.duration, 60u);
}

TEST(TimedTrace, OnlyChangedThreadsSplit) {
  // Two threads; only thread 1 changes at t=10.
  const auto d = make_decoded({{0, {1, 0}}, {10, {1, 1}}});
  const TimedTrace t = build_timed_trace(d, 2, 20, 0);
  EXPECT_EQ(t.thread_states[0].size(), 1u);  // running the whole time
  ASSERT_EQ(t.thread_states[1].size(), 2u);
  EXPECT_EQ(t.thread_states[1][0].state, ThreadState::idle);
  EXPECT_EQ(t.thread_states[1][1].state, ThreadState::running);
}

TEST(TimedTrace, StateFractions) {
  const auto d = make_decoded({{0, {1}}, {75, {3}}});
  const TimedTrace t = build_timed_trace(d, 1, 100, 0);
  EXPECT_DOUBLE_EQ(t.state_fraction(0, ThreadState::running), 0.75);
  EXPECT_DOUBLE_EQ(t.state_fraction(0, ThreadState::spinning), 0.25);
  EXPECT_DOUBLE_EQ(t.state_fraction(0, ThreadState::critical), 0.0);
  EXPECT_DOUBLE_EQ(t.state_fraction(ThreadState::running), 0.75);
  EXPECT_EQ(t.state_cycles(ThreadState::spinning), 25u);
}

TEST(TimedTrace, AggregateFractionAveragesThreads) {
  const auto d = make_decoded({{0, {1, 0}}});
  const TimedTrace t = build_timed_trace(d, 2, 100, 0);
  EXPECT_DOUBLE_EQ(t.state_fraction(ThreadState::running), 0.5);
  EXPECT_DOUBLE_EQ(t.state_fraction(ThreadState::idle), 0.5);
}

TEST(TimedTrace, ZeroLengthIntervalsDropped) {
  // Two records at the same cycle: the interval between them is empty.
  const auto d = make_decoded({{0, {0}}, {10, {1}}, {10, {2}}, {20, {0}}});
  const TimedTrace t = build_timed_trace(d, 1, 30, 0);
  for (const auto& iv : t.thread_states[0]) EXPECT_LT(iv.begin, iv.end);
}

TEST(TimedTrace, EmptyDecodedTrace) {
  const TimedTrace t = build_timed_trace(DecodedTrace{}, 4, 100, 0);
  EXPECT_EQ(t.duration, 100u);
  for (const auto& iv : t.thread_states) EXPECT_TRUE(iv.empty());
  EXPECT_DOUBLE_EQ(t.state_fraction(ThreadState::running), 0.0);
}

TEST(TimedTrace, StateFractionOutOfRangeThrows) {
  const TimedTrace t = build_timed_trace(DecodedTrace{}, 2, 10, 0);
  EXPECT_THROW(t.state_fraction(5, ThreadState::idle), Error);
}

TEST(TimedTrace, EventsCopiedWithUnwrappedClocks) {
  DecodedTrace d;
  EventRecord e;
  e.kind = EventKind::fp_ops;
  e.thread = 3;
  e.clock32 = 40;
  e.value = 123;
  d.events.push_back(e);
  d.event_clocks.push_back(40);
  const TimedTrace t = build_timed_trace(d, 4, 100, 50);
  ASSERT_EQ(t.events.size(), 1u);
  EXPECT_EQ(t.events[0].thread, 3u);
  EXPECT_EQ(t.events[0].t, 40u);
  EXPECT_EQ(t.events[0].value, 123u);
  EXPECT_EQ(t.sampling_period, 50u);
}

TEST(TimedTrace, SamplingPeriodZeroWithoutEvents) {
  const TimedTrace t = build_timed_trace(DecodedTrace{}, 1, 10, 50);
  EXPECT_EQ(t.sampling_period, 0u);
}

TEST(TimedTrace, EventTotalsAndSeries) {
  DecodedTrace d;
  auto push = [&](EventKind k, std::uint8_t th, cycle_t t, std::uint64_t v) {
    EventRecord e;
    e.kind = k;
    e.thread = th;
    e.clock32 = std::uint32_t(t);
    e.value = v;
    d.events.push_back(e);
    d.event_clocks.push_back(t);
  };
  push(EventKind::bytes_read, 0, 0, 10);
  push(EventKind::bytes_read, 1, 0, 5);
  push(EventKind::bytes_read, 0, 100, 20);
  push(EventKind::fp_ops, 0, 0, 99);
  const TimedTrace t = build_timed_trace(d, 2, 200, 100);
  EXPECT_EQ(t.event_total(EventKind::bytes_read), 35u);
  EXPECT_EQ(t.event_total(EventKind::fp_ops), 99u);
  EXPECT_EQ(t.event_total(EventKind::stall_cycles), 0u);
  // The per-window series keeps each sample at its window start.
  ASSERT_EQ(t.events.size(), 4u);
  EXPECT_EQ(t.events[2].t, 100u);
  EXPECT_EQ(t.events[2].value, 20u);
}

TEST(TimedTrace, RunEndExtendsLastInterval) {
  const auto d = make_decoded({{0, {1}}});
  const TimedTrace t = build_timed_trace(d, 1, 500, 0);
  ASSERT_EQ(t.thread_states[0].size(), 1u);
  EXPECT_EQ(t.thread_states[0][0].end, 500u);
}

TEST(TimedTrace, ThreadCountMismatchThrows) {
  // A record with a code for a third thread, folded for two threads.
  const auto d = make_decoded({{0, {1, 0, 2}}});
  EXPECT_THROW(build_timed_trace(d, 2, 10, 0), Error);
}

TEST(TimedTraceBuilderView, ExposesClosedAndOpenIntervals) {
  TimedTraceBuilder b(2, 0);
  EXPECT_FALSE(b.started());
  StateRecord s;
  s.states = pack_states({1, 0});  // running, idle
  b.on_state(s, 100);
  s.states = pack_states({1, 3});
  b.on_state(s, 300);
  EventRecord e;
  e.kind = EventKind::bytes_read;
  e.value = 64;
  b.on_event(e, 256);  // an older window start never moves the clock back
  ASSERT_TRUE(b.started());
  EXPECT_EQ(b.num_threads(), 2);
  EXPECT_EQ(b.last_clock(), 300u);
  // Thread 0 still runs since 100; thread 1 idled [100,300) and now
  // spins.
  EXPECT_TRUE(b.closed_intervals()[0].empty());
  EXPECT_EQ(b.open_state(0), ThreadState::running);
  EXPECT_EQ(b.open_since(0), 100u);
  ASSERT_EQ(b.closed_intervals()[1].size(), 1u);
  EXPECT_EQ(b.closed_intervals()[1][0].state, ThreadState::idle);
  EXPECT_EQ(b.closed_intervals()[1][0].end, 300u);
  EXPECT_EQ(b.open_state(1), ThreadState::spinning);
  EXPECT_EQ(b.open_since(1), 300u);
  // finish() closes the open intervals the view showed.
  const TimedTrace t = b.finish(400);
  EXPECT_EQ(t.state_cycles(ThreadState::running), 300u);
  EXPECT_EQ(t.state_cycles(ThreadState::spinning), 100u);
}

}  // namespace
}  // namespace hlsprof::trace
