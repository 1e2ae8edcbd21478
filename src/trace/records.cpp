#include "trace/records.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace hlsprof::trace {

std::size_t state_record_bytes(int num_threads) {
  return 1 /*tag*/ + 4 /*clock*/ +
         std::size_t((2 * num_threads + 7) / 8) /*2 bits per thread*/;
}

std::size_t event_record_bytes() {
  return 1 /*tag*/ + 1 /*kind*/ + 1 /*thread*/ + 4 /*clock*/ + 8 /*value*/;
}

LineEncoder::LineEncoder(int num_threads) : num_threads_(num_threads) {
  HLSPROF_CHECK(num_threads >= 1 && num_threads <= 64,
                "LineEncoder thread count out of range");
  HLSPROF_CHECK(state_record_bytes(num_threads) <= kLineBytes - 1,
                "state record does not fit one line");
}

void LineEncoder::put_u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) line_[fill_ + i] = std::uint8_t(v >> (8 * i));
  fill_ += 4;
}

void LineEncoder::put_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) line_[fill_ + i] = std::uint8_t(v >> (8 * i));
  fill_ += 8;
}

void LineEncoder::bump_count() {
  HLSPROF_CHECK(fill_ != 0, "bump_count on empty line");
  ++line_[0];
}

void LineEncoder::close_line() {
  std::fill(line_.begin() + std::ptrdiff_t(fill_), line_.end(), 0);  // pad
  full_bytes_.insert(full_bytes_.end(), line_.begin(), line_.end());
  fill_ = 0;
}

int LineEncoder::ensure_fits(std::size_t record_bytes) {
  int completed = 0;
  if (fill_ != 0 && fill_ + record_bytes > kLineBytes) {
    close_line();
    completed = 1;
  }
  if (fill_ == 0) {
    line_[0] = 0;  // record count
    fill_ = 1;
  }
  return completed;
}

int LineEncoder::append_state(std::uint32_t clock32,
                              const std::vector<std::uint8_t>& states2bit) {
  HLSPROF_CHECK(static_cast<int>(states2bit.size()) == num_threads_,
                "state vector size mismatch");
  const int completed = ensure_fits(state_record_bytes(num_threads_));
  put_u8(kTagState);
  put_u32(clock32);
  std::uint8_t packed = 0;
  int bits = 0;
  for (int t = 0; t < num_threads_; ++t) {
    HLSPROF_CHECK(states2bit[std::size_t(t)] < 4, "state code out of range");
    packed |= std::uint8_t(states2bit[std::size_t(t)] << bits);
    bits += 2;
    if (bits == 8) {
      put_u8(packed);
      packed = 0;
      bits = 0;
    }
  }
  if (bits != 0) put_u8(packed);
  bump_count();
  return completed;
}

int LineEncoder::append_event(const EventRecord& r) {
  const int completed = ensure_fits(event_record_bytes());
  put_u8(kTagEvent);
  put_u8(std::uint8_t(r.kind));
  put_u8(r.thread);
  put_u32(r.clock32);
  put_u64(r.value);
  bump_count();
  return completed;
}

std::vector<std::uint8_t> LineEncoder::take_lines() {
  if (fill_ != 0) close_line();
  return std::exchange(full_bytes_, {});
}

cycle_t ClockUnwrapper::feed(std::uint32_t c32) {
  if (!started_) {
    started_ = true;
    last_ = c32;
    base_ = 0;
    return cycle_t(c32);
  }
  const std::int64_t delta =
      std::int64_t(std::int32_t(c32 - last_));  // signed wrap delta
  std::int64_t next = std::int64_t(base_) + std::int64_t(last_) + delta;
  if (next < 0) next = 0;
  last_ = c32;
  base_ = cycle_t(next) - cycle_t(last_);
  return cycle_t(next);
}

// decode_lines lives in streaming.cpp as a thin wrapper over
// StreamingDecoder, so batch and streaming decode share one record parser.

}  // namespace hlsprof::trace
