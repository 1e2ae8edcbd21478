// Tests for the streaming trace decoder (src/trace/streaming.*): chunked
// feeding, the hardened record pipeline (corruption/truncation rejection
// with offsets in the errors), clock-unwrap persistence across chunks, and
// the streaming==batch equivalence property.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "state_words.hpp"
#include "trace/records.hpp"
#include "trace/streaming.hpp"
#include "trace/timed_trace.hpp"

namespace hlsprof::trace {
namespace {

/// RecordSink mirroring the batch DecodedTrace shape for comparisons.
struct Collect final : RecordSink {
  DecodedTrace out;
  void on_state(const StateRecord& r, cycle_t t) override {
    out.states.push_back(r);
    out.state_clocks.push_back(t);
  }
  void on_event(const EventRecord& r, cycle_t t) override {
    out.events.push_back(r);
    out.event_clocks.push_back(t);
  }
};

/// Every line `enc` completed so far, the open one closed.
std::vector<std::uint8_t> take(LineEncoder& enc) {
  std::vector<std::uint8_t> lines;
  enc.take_lines(lines);
  return lines;
}

std::vector<std::uint8_t> one_state_line(int threads, std::uint32_t clock) {
  LineEncoder enc(threads);
  enc.append_state(
      clock, pack_states(std::vector<std::uint8_t>(std::size_t(threads), 1)));
  return take(enc);
}

std::vector<std::uint8_t> one_event_line(int threads) {
  LineEncoder enc(threads);
  EventRecord er;
  er.kind = EventKind::fp_ops;
  er.thread = 1;
  er.clock32 = 77;
  er.value = 42;
  enc.append_event(er);
  return take(enc);
}

std::string error_of(const std::function<void()>& f) {
  try {
    f();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

// ---- record-count bound derived from the thread count ----------------------

TEST(StreamingDecoder, MaxRecordsPerLineTracksThreadCount) {
  // 1 thread: smallest record is a 6-byte state -> 10 fit after the count
  // byte. 8 threads: 7-byte states -> 9. 64 threads: states are 21 bytes,
  // so the 15-byte event record is the smallest -> 4.
  EXPECT_EQ(max_records_per_line(1), 10);
  EXPECT_EQ(max_records_per_line(4), 10);
  EXPECT_EQ(max_records_per_line(8), 9);
  EXPECT_EQ(max_records_per_line(32), 4);  // 13-byte states -> 63/13
  EXPECT_EQ(max_records_per_line(64), 4);
}

TEST(StreamingDecoder, EncoderNeverExceedsTheDerivedBound) {
  for (int threads : {1, 3, 8, 16, 33, 64}) {
    LineEncoder enc(threads);
    const StateWord st =
        pack_states(std::vector<std::uint8_t>(std::size_t(threads), 1));
    for (std::uint32_t i = 0; i < 200; ++i) enc.append_state(i, st);
    const auto lines = take(enc);
    for (std::size_t off = 0; off < lines.size(); off += kLineBytes) {
      EXPECT_LE(int(lines[off]), max_records_per_line(threads)) << threads;
    }
  }
}

// ---- corruption / truncation suite -----------------------------------------

TEST(StreamingCorruption, TornFinalLineRejected) {
  const auto line = one_state_line(8, 123);
  Collect sink;
  StreamingDecoder dec(8, sink);
  dec.feed(line.data(), 40);  // partial line only
  const auto msg = error_of([&] { dec.finish(); });
  EXPECT_NE(msg.find("torn final trace line"), std::string::npos) << msg;
  EXPECT_NE(msg.find("40"), std::string::npos) << msg;  // stray byte count
}

TEST(StreamingCorruption, ZeroPaddedTailWhereRecordExpectedRejected) {
  // The count byte claims two records but only one was written: the
  // decoder walks into the zero padding and must reject tag 0x00.
  auto line = one_state_line(8, 123);
  line[0] = 2;
  Collect sink;
  StreamingDecoder dec(8, sink);
  const auto msg =
      error_of([&] { dec.feed(line.data(), line.size()); });
  EXPECT_NE(msg.find("bad record tag 0x00"), std::string::npos) << msg;
  EXPECT_NE(msg.find("offset 0"), std::string::npos) << msg;
}

TEST(StreamingCorruption, BadTagRejectedWithOffset) {
  auto lines = one_state_line(8, 1);
  const auto second = one_state_line(8, 2);
  lines.insert(lines.end(), second.begin(), second.end());
  lines[kLineBytes + 1] = 0x33;  // clobber the second line's first tag
  Collect sink;
  StreamingDecoder dec(8, sink);
  const auto msg =
      error_of([&] { dec.feed(lines.data(), lines.size()); });
  EXPECT_NE(msg.find("bad record tag 0x33"), std::string::npos) << msg;
  EXPECT_NE(msg.find("offset 64"), std::string::npos) << msg;
}

TEST(StreamingCorruption, ImplausibleCountRejectedPerThreadCount) {
  // count = 5 is structurally impossible at 64 threads (only 4 of the
  // smallest record fit a line) even though it is fine at 1 thread — the
  // old hardcoded `count <= 10` bound accepted it everywhere.
  std::vector<std::uint8_t> line(kLineBytes, 0);
  line[0] = 5;
  line[1] = kTagEvent;  // plausible-looking first record
  line[2] = 1;          // kind
  {
    Collect sink;
    StreamingDecoder dec(64, sink);
    const auto msg =
        error_of([&] { dec.feed(line.data(), line.size()); });
    EXPECT_NE(msg.find("implausible record count 5"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("64 threads"), std::string::npos) << msg;
  }
  {
    // Far over the physical bound is rejected at any thread count.
    line[0] = 200;
    Collect sink;
    StreamingDecoder dec(1, sink);
    EXPECT_THROW(dec.feed(line.data(), line.size()), Error);
  }
}

TEST(StreamingCorruption, EventKindOutOfRangeRejected) {
  for (std::uint8_t bad_kind : {std::uint8_t(0), std::uint8_t(6),
                                std::uint8_t(99)}) {
    auto line = one_event_line(8);
    line[2] = bad_kind;  // kind byte follows the tag
    Collect sink;
    StreamingDecoder dec(8, sink);
    const auto msg =
        error_of([&] { dec.feed(line.data(), line.size()); });
    EXPECT_NE(msg.find("unknown event kind"), std::string::npos) << msg;
    EXPECT_NE(msg.find("offset 0"), std::string::npos) << msg;
  }
}

TEST(StreamingCorruption, RecordOverrunningLineRejected) {
  // A count that passes the plausibility bound but whose record data runs
  // off the line end. At 64 threads a state record is 21 bytes, so only 3
  // fit after the count byte (1+3*21 = 64 exactly) — yet count=4 passes
  // the plausibility bound because 4 of the smaller 15-byte event records
  // would fit. The 4th state record must be caught by the bounds check.
  ASSERT_EQ(state_record_bytes(64), 21u);
  ASSERT_EQ(max_records_per_line(64), 4);
  std::vector<std::uint8_t> line(kLineBytes, 0);
  line[0] = 4;
  line[1] = kTagState;
  line[22] = kTagState;
  line[43] = kTagState;
  Collect sink;
  StreamingDecoder dec(64, sink);
  const auto msg = error_of([&] { dec.feed(line.data(), line.size()); });
  EXPECT_NE(msg.find("overruns its line"), std::string::npos) << msg;
  EXPECT_NE(msg.find("offset 0"), std::string::npos) << msg;
}

TEST(StreamingCorruption, BatchWrapperStillRejectsPartialSpan) {
  std::vector<std::uint8_t> bad(kLineBytes + 1, 0);
  EXPECT_THROW(decode_lines(bad.data(), bad.size(), 8), Error);
}

TEST(StreamingCorruption, FeedAfterFinishRejected) {
  const auto line = one_state_line(8, 1);
  Collect sink;
  StreamingDecoder dec(8, sink);
  dec.feed(line.data(), line.size());
  dec.finish();
  EXPECT_THROW(dec.feed(line.data(), line.size()), Error);
}

// ---- chunked == batch equivalence ------------------------------------------

std::vector<std::uint8_t> random_trace(SplitMix64& rng, int threads,
                                       int records) {
  LineEncoder enc(threads);
  std::uint32_t clock = 0;
  for (int i = 0; i < records; ++i) {
    clock += std::uint32_t(rng.next_below(1000));
    if (rng.next_below(2) == 0) {
      std::vector<std::uint8_t> st(std::size_t(threads), 0);
      for (auto& s : st) s = std::uint8_t(rng.next_below(4));
      enc.append_state(clock, pack_states(st));
    } else {
      EventRecord er;
      er.kind = EventKind(1 + rng.next_below(5));
      er.thread = std::uint8_t(rng.next_below(std::uint64_t(threads)));
      er.clock32 = clock;
      er.value = rng.next();
      enc.append_event(er);
    }
  }
  return take(enc);
}

void expect_same(const DecodedTrace& a, const DecodedTrace& b) {
  ASSERT_EQ(a.states.size(), b.states.size());
  ASSERT_EQ(a.events.size(), b.events.size());
  ASSERT_EQ(a.state_clocks, b.state_clocks);
  ASSERT_EQ(a.event_clocks, b.event_clocks);
  for (std::size_t i = 0; i < a.states.size(); ++i) {
    EXPECT_EQ(a.states[i].clock32, b.states[i].clock32) << i;
    EXPECT_TRUE(a.states[i].states == b.states[i].states) << i;
  }
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind) << i;
    EXPECT_EQ(a.events[i].thread, b.events[i].thread) << i;
    EXPECT_EQ(a.events[i].clock32, b.events[i].clock32) << i;
    EXPECT_EQ(a.events[i].value, b.events[i].value) << i;
  }
}

class ChunkSplitSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChunkSplitSweep, RandomChunkSplitsEqualBatchDecode) {
  SplitMix64 rng(GetParam());
  const int threads = 1 + int(rng.next_below(16));
  const auto lines = random_trace(rng, threads, 400);

  const DecodedTrace batch = decode_lines(lines.data(), lines.size(),
                                          threads);

  // Stream the same bytes in random-size chunks, deliberately unaligned
  // with the 64-byte line framing (including 1-byte feeds).
  Collect sink;
  StreamingDecoder dec(threads, sink);
  std::size_t pos = 0;
  while (pos < lines.size()) {
    const std::size_t n =
        std::min<std::size_t>(1 + rng.next_below(150), lines.size() - pos);
    dec.feed(lines.data() + pos, n);
    pos += n;
  }
  dec.finish();
  EXPECT_EQ(dec.bytes_consumed(), lines.size());
  EXPECT_EQ(dec.carry_bytes(), 0u);
  expect_same(sink.out, batch);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChunkSplitSweep,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u,
                                           606u, 707u, 808u));

// ---- unwrapper persistence across chunks -----------------------------------

TEST(StreamingClocks, WrapSpanningChunkBoundaryStaysMonotone) {
  // Two flush bursts; the 32-bit clock wraps between them. The persistent
  // unwrapper must keep the unwrapped cycles monotone across the boundary.
  const auto burst1 = one_state_line(8, 0xFFFFFFF0u);
  const auto burst2 = one_state_line(8, 0x00000010u);  // after the wrap
  Collect sink;
  StreamingDecoder dec(8, sink);
  dec.feed(burst1.data(), burst1.size());
  dec.feed(burst2.data(), burst2.size());
  dec.finish();
  ASSERT_EQ(sink.out.state_clocks.size(), 2u);
  EXPECT_EQ(sink.out.state_clocks[0], cycle_t(0xFFFFFFF0u));
  EXPECT_EQ(sink.out.state_clocks[1], cycle_t(0xFFFFFFF0u) + 0x20);
}

// ---- streaming timeline construction ---------------------------------------

TEST(StreamingTimeline, DecoderIntoBuilderMatchesBatchBuild) {
  SplitMix64 rng(4242);
  const int threads = 4;
  const auto lines = random_trace(rng, threads, 300);

  const DecodedTrace batch = decode_lines(lines.data(), lines.size(),
                                          threads);
  const TimedTrace want = build_timed_trace(batch, threads, 1u << 20, 128);

  TimedTraceBuilder builder(threads, 128);
  StreamingDecoder dec(threads, builder);
  // Feed line-by-line, as flush bursts would arrive.
  for (std::size_t off = 0; off < lines.size(); off += kLineBytes) {
    dec.feed(lines.data() + off, kLineBytes);
  }
  dec.finish();
  const TimedTrace got = builder.finish(1u << 20);

  ASSERT_EQ(got.num_threads, want.num_threads);
  EXPECT_EQ(got.duration, want.duration);
  EXPECT_EQ(got.sampling_period, want.sampling_period);
  ASSERT_EQ(got.events.size(), want.events.size());
  for (int t = 0; t < threads; ++t) {
    const auto& gi = got.thread_states[std::size_t(t)];
    const auto& wi = want.thread_states[std::size_t(t)];
    ASSERT_EQ(gi.size(), wi.size()) << t;
    for (std::size_t i = 0; i < gi.size(); ++i) {
      EXPECT_EQ(gi[i].state, wi[i].state);
      EXPECT_EQ(gi[i].begin, wi[i].begin);
      EXPECT_EQ(gi[i].end, wi[i].end);
    }
  }
}

// ---- packed state words: encoder -> decoder -> builder ----------------------

class PackedStateRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(PackedStateRoundTrip, EncoderDecoderBuilderAgree) {
  const int threads = GetParam();
  SplitMix64 rng(static_cast<std::uint64_t>(threads));
  // The first record sets every code bit (at 64 threads, all 128 bits);
  // each later one changes about a third of the threads.
  std::vector<std::vector<std::uint8_t>> sent{
      std::vector<std::uint8_t>(std::size_t(threads), 3)};
  for (int i = 0; i < 40; ++i) {
    std::vector<std::uint8_t> next = sent.back();
    for (auto& c : next) {
      if (rng.next_below(3) == 0) c = std::uint8_t(rng.next_below(4));
    }
    sent.push_back(std::move(next));
  }
  LineEncoder enc(threads);
  for (std::size_t i = 0; i < sent.size(); ++i) {
    enc.append_state(std::uint32_t(10 * i), pack_states(sent[i]));
  }
  std::vector<std::uint8_t> lines = take(enc);

  // Set the padding bits above the last code in every record's last
  // state byte: they are not codes and must be ignored.
  const std::size_t rec = state_record_bytes(threads);
  const int used_bits = (2 * threads) % 8;
  const auto pad = std::uint8_t(used_bits == 0 ? 0 : 0xFF << used_bits);
  for (std::size_t off = 0; off < lines.size(); off += kLineBytes) {
    for (std::size_t r = 0; r < lines[off]; ++r) {
      lines[off + 1 + r * rec + rec - 1] |= pad;
    }
  }

  const DecodedTrace d = decode_lines(lines.data(), lines.size(), threads);
  ASSERT_EQ(d.states.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(unpack_states(d.states[i].states, threads), sent[i]) << i;
    EXPECT_TRUE((d.states[i].states & ~state_mask(threads)) == 0) << i;
  }

  // Each thread's intervals split exactly where its own code changed.
  TimedTraceBuilder builder(threads, 0);
  StreamingDecoder dec(threads, builder);
  dec.feed(lines.data(), lines.size());
  dec.finish();
  const cycle_t run_end = 10 * sent.size();
  const TimedTrace got = builder.finish(run_end);
  for (int k = 0; k < threads; ++k) {
    std::vector<StateInterval> want;
    for (std::size_t i = 0; i < sent.size(); ++i) {
      const auto s = sim::ThreadState(sent[i][std::size_t(k)]);
      if (i > 0 && want.back().state == s) continue;
      if (i > 0) want.back().end = 10 * i;
      want.push_back(StateInterval{s, 10 * i, run_end});
    }
    const auto& gi = got.thread_states[std::size_t(k)];
    ASSERT_EQ(gi.size(), want.size()) << "thread " << k;
    for (std::size_t i = 0; i < gi.size(); ++i) {
      EXPECT_EQ(gi[i].state, want[i].state) << "thread " << k;
      EXPECT_EQ(gi[i].begin, want[i].begin) << "thread " << k;
      EXPECT_EQ(gi[i].end, want[i].end) << "thread " << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, PackedStateRoundTrip,
                         ::testing::Values(1, 3, 4, 8, 33, 64));

TEST(StreamingTimeline, BuilderIsSpentAfterFinish) {
  TimedTraceBuilder b(2, 0);
  StateRecord r;
  r.states = pack_states({1, 1});
  b.on_state(r, 10);
  (void)b.finish(100);
  EXPECT_THROW(b.on_state(r, 20), Error);
  EXPECT_THROW(b.finish(100), Error);
}

}  // namespace
}  // namespace hlsprof::trace
