// Unit tests for the binary trace-record format (src/trace/records.*):
// line packing, round-trips, clock unwrapping, malformed-input handling.
#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "state_words.hpp"
#include "trace/records.hpp"

namespace hlsprof::trace {
namespace {

/// The state word of `n` threads all in state `v`.
StateWord states_of(int n, std::uint8_t v) {
  return pack_states(std::vector<std::uint8_t>(std::size_t(n), v));
}

/// Every line `enc` completed so far, the open one closed.
std::vector<std::uint8_t> take(LineEncoder& enc) {
  std::vector<std::uint8_t> lines;
  enc.take_lines(lines);
  return lines;
}

TEST(Records, StateRecordSize) {
  EXPECT_EQ(state_record_bytes(1), 6u);   // tag + clock + 1 byte of states
  EXPECT_EQ(state_record_bytes(4), 6u);   // 8 bits fit one byte
  EXPECT_EQ(state_record_bytes(8), 7u);   // 16 bits -> 2 bytes
  EXPECT_EQ(state_record_bytes(64), 21u); // 128 bits -> 16 bytes
}

TEST(Records, EventRecordSize) { EXPECT_EQ(event_record_bytes(), 15u); }

TEST(Records, EncoderRejectsBadThreadCount) {
  EXPECT_THROW(LineEncoder(0), Error);
  EXPECT_THROW(LineEncoder(65), Error);
}

TEST(Records, SingleStateRoundTrip) {
  LineEncoder enc(8);
  std::vector<std::uint8_t> st{0, 1, 2, 3, 3, 2, 1, 0};
  enc.append_state(1234, pack_states(st));
  const auto lines = take(enc);
  ASSERT_EQ(lines.size(), kLineBytes);
  const auto d = decode_lines(lines.data(), lines.size(), 8);
  ASSERT_EQ(d.states.size(), 1u);
  EXPECT_EQ(d.states[0].clock32, 1234u);
  EXPECT_EQ(unpack_states(d.states[0].states, 8), st);
  EXPECT_TRUE(d.events.empty());
  ASSERT_EQ(d.state_clocks.size(), 1u);
  EXPECT_EQ(d.state_clocks[0], 1234u);
}

TEST(Records, SingleEventRoundTrip) {
  LineEncoder enc(8);
  EventRecord er;
  er.kind = EventKind::bytes_read;
  er.thread = 5;
  er.clock32 = 99;
  er.value = 0xDEADBEEFCAFEULL;
  enc.append_event(er);
  const auto lines = take(enc);
  const auto d = decode_lines(lines.data(), lines.size(), 8);
  ASSERT_EQ(d.events.size(), 1u);
  EXPECT_EQ(d.events[0].kind, EventKind::bytes_read);
  EXPECT_EQ(d.events[0].thread, 5);
  EXPECT_EQ(d.events[0].clock32, 99u);
  EXPECT_EQ(d.events[0].value, 0xDEADBEEFCAFEULL);
}

TEST(Records, InterleavedRoundTripPreservesOrderWithinKinds) {
  LineEncoder enc(4);
  for (std::uint32_t i = 0; i < 100; ++i) {
    enc.append_state(i * 10, states_of(4, std::uint8_t(i % 4)));
    EventRecord er;
    er.kind = EventKind(1 + int(i % 5));
    er.thread = std::uint8_t(i % 4);
    er.clock32 = i * 10 + 5;
    er.value = i;
    enc.append_event(er);
  }
  const auto lines = take(enc);
  const auto d = decode_lines(lines.data(), lines.size(), 4);
  ASSERT_EQ(d.states.size(), 100u);
  ASSERT_EQ(d.events.size(), 100u);
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(d.states[i].clock32, i * 10);
    EXPECT_EQ(d.events[i].value, i);
  }
}

TEST(Records, LineCompletionCounting) {
  // 8-thread state records are 7 bytes; with the 1-byte count header a
  // 64-byte line holds 9 of them.
  LineEncoder enc(8);
  int completed = 0;
  for (int i = 0; i < 9; ++i) {
    completed += enc.append_state(std::uint32_t(i), states_of(8, 1));
  }
  EXPECT_EQ(completed, 0);  // all fit the first line
  completed += enc.append_state(99, states_of(8, 1));
  EXPECT_EQ(completed, 1);  // 10th record closed the first line
  EXPECT_EQ(enc.pending_lines(), 1u);
  EXPECT_TRUE(enc.line_open());
}

TEST(Records, TakeLinesPadsAndClears) {
  LineEncoder enc(8);
  enc.append_state(1, states_of(8, 1));
  auto lines = take(enc);
  EXPECT_EQ(lines.size(), kLineBytes);
  EXPECT_FALSE(enc.line_open());
  EXPECT_EQ(enc.pending_lines(), 0u);
  // Tail must be zero padding.
  for (std::size_t i = 1 + state_record_bytes(8); i < kLineBytes; ++i) {
    EXPECT_EQ(lines[i], 0);
  }
  EXPECT_TRUE(take(enc).empty());
}

TEST(Records, TakeLinesSwapsBuffersWithTheCaller) {
  // Bursts alternate between the caller's buffer and the encoder's, so
  // the third burst lands in the storage the first one used.
  LineEncoder enc(8);
  std::vector<std::uint8_t> burst;
  const std::uint8_t* first = nullptr;
  for (int i = 0; i < 3; ++i) {
    for (int r = 0; r < 30; ++r) enc.append_state(1, states_of(8, 2));
    enc.take_lines(burst);
    EXPECT_EQ(burst.size(), 4 * kLineBytes);  // 9 records a line
    EXPECT_EQ(enc.pending_lines(), 0u);
    if (i == 0) first = burst.data();
  }
  EXPECT_EQ(burst.data(), first);
  enc.take_lines(burst);
  EXPECT_TRUE(burst.empty());
}

TEST(Records, StateVectorSizeMismatchThrows) {
  // Eight threads' codes for a four-thread encoder: bits above 2 * 4.
  LineEncoder enc(4);
  EXPECT_THROW(enc.append_state(0, states_of(8, 1)), Error);
  EXPECT_FALSE(enc.line_open());
}

TEST(Records, StateCodeOutOfRangeThrows) {
  // A bit set just above the 2 * T code bits throws; the top code bit
  // is a code.
  for (int threads : {1, 2, 33, 63}) {
    LineEncoder enc(threads);
    EXPECT_THROW(enc.append_state(0, StateWord(1) << (2 * threads)), Error)
        << threads;
    EXPECT_NO_THROW(
        enc.append_state(0, StateWord(1) << (2 * threads - 1)))
        << threads;
  }
  LineEncoder enc(64);
  EXPECT_NO_THROW(enc.append_state(0, ~StateWord(0)));
}

TEST(Records, DecodeRejectsPartialLine) {
  std::vector<std::uint8_t> bad(kLineBytes + 1, 0);
  EXPECT_THROW(decode_lines(bad.data(), bad.size(), 8), Error);
}

TEST(Records, DecodeRejectsBadTag) {
  LineEncoder enc(8);
  enc.append_state(0, states_of(8, 1));
  auto lines = take(enc);
  lines[1] = 0x00;  // clobber the tag
  EXPECT_THROW(decode_lines(lines.data(), lines.size(), 8), Error);
}

TEST(Records, DecodeRejectsImplausibleCount) {
  std::vector<std::uint8_t> line(kLineBytes, 0);
  line[0] = 200;
  EXPECT_THROW(decode_lines(line.data(), line.size(), 8), Error);
}

TEST(Records, DecodeRejectsBadEventKind) {
  LineEncoder enc(8);
  EventRecord er;
  er.kind = EventKind::fp_ops;
  enc.append_event(er);
  auto lines = take(enc);
  lines[2] = 99;  // kind byte after tag
  EXPECT_THROW(decode_lines(lines.data(), lines.size(), 8), Error);
}

TEST(Records, EmptyDecode) {
  const auto d = decode_lines(nullptr, 0, 8);
  EXPECT_TRUE(d.states.empty());
  EXPECT_TRUE(d.events.empty());
}

// ---- state bit packing across thread counts -------------------------------

class PackingTest : public ::testing::TestWithParam<int> {};

TEST_P(PackingTest, AllStateCodesRoundTrip) {
  const int threads = GetParam();
  LineEncoder enc(threads);
  std::vector<std::uint8_t> st(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) st[std::size_t(i)] = std::uint8_t(i % 4);
  enc.append_state(0xABCD, pack_states(st));
  const auto lines = take(enc);
  const auto d = decode_lines(lines.data(), lines.size(), threads);
  ASSERT_EQ(d.states.size(), 1u);
  EXPECT_EQ(unpack_states(d.states[0].states, threads), st);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, PackingTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 15, 16,
                                           31, 32, 33, 64));

// ---- clock unwrapping -------------------------------------------------------

/// Feed `clocks` through one ClockUnwrapper, as the decoder does.
std::vector<cycle_t> unwrap_clocks(const std::vector<std::uint32_t>& clocks) {
  ClockUnwrapper u;
  std::vector<cycle_t> out;
  for (std::uint32_t c : clocks) out.push_back(u.feed(c));
  return out;
}

TEST(Unwrap, MonotonicPassThrough) {
  const auto out = unwrap_clocks({0, 10, 20, 100});
  EXPECT_EQ(out, (std::vector<cycle_t>{0, 10, 20, 100}));
}

TEST(Unwrap, SingleWrap) {
  const std::uint32_t near_max = 0xFFFFFFF0u;
  const auto out = unwrap_clocks({near_max, 4});  // wraps past 2^32
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], cycle_t(near_max));
  EXPECT_EQ(out[1], cycle_t(near_max) + 20);
}

TEST(Unwrap, MultipleWraps) {
  std::vector<std::uint32_t> clocks;
  cycle_t truth = 0;
  std::vector<cycle_t> expected;
  for (int i = 0; i < 40; ++i) {
    truth += 0x40000000ULL;  // quarter of the wrap period per step
    clocks.push_back(std::uint32_t(truth & 0xffffffffULL));
    expected.push_back(truth);
  }
  const auto out = unwrap_clocks(clocks);
  for (std::size_t i = 1; i < out.size(); ++i) {
    EXPECT_EQ(out[i] - out[0], expected[i] - expected[0]) << i;
  }
}

TEST(Unwrap, SmallBackwardsStepsAllowed) {
  // Event-window records can trail state records slightly.
  const auto out = unwrap_clocks({1000, 900, 1100});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], 1000u);
  EXPECT_EQ(out[1], 900u);
  EXPECT_EQ(out[2], 1100u);
}

TEST(Unwrap, BackwardsAtZeroClamps) {
  const auto out = unwrap_clocks({5, 0xFFFFFFF0u});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1], 0u);  // would be negative; clamped
}

TEST(Unwrap, Empty) { EXPECT_TRUE(unwrap_clocks({}).empty()); }

}  // namespace
}  // namespace hlsprof::trace
