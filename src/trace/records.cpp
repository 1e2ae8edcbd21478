#include "trace/records.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace hlsprof::trace {

LineEncoder::LineEncoder(int num_threads)
    : num_threads_(num_threads),
      state_bytes_(state_record_bytes(num_threads) - 5) {
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

int LineEncoder::append_state(std::uint32_t clock32, StateWord states) {
  HLSPROF_CHECK((states & ~state_mask(num_threads_)) == 0,
                "state word has a code above the thread count");
  const int completed = ensure_fits(5 + state_bytes_);
  put_u8(kTagState);
  put_u32(clock32);
  for (std::size_t i = 0; i < state_bytes_; ++i) {
    line_[fill_ + i] = std::uint8_t(states >> (8 * i));
  }
  fill_ += state_bytes_;
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

void LineEncoder::take_lines(std::vector<std::uint8_t>& burst) {
  if (fill_ != 0) close_line();
  burst.clear();
  burst.swap(full_bytes_);
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
