// Binary trace-record format written by the hardware profiling unit into
// external memory, and the host-side decoder.
//
// Layout (paper §IV-B): records are packed into 512-bit (64-byte) lines —
// the external memory controller's data width. Each line starts with a
// 1-byte record count followed by the records back to back; the tail is
// zero padding.
//
//  * State record (§IV-B1): tag byte, 32-bit wrapping clock, then
//    2 bits/thread packed little-endian (00 idle, 01 running, 10 critical,
//    11 spinning) — `2*N_threads + 32` payload bits as in the paper.
//  * Event record (§IV-B2): tag byte, event kind, thread id, 32-bit
//    wrapping clock (the sampling-window start), 64-bit aggregated value.
//
// The 32-bit clock wraps every ~30 s at 140 MHz; the decoder unwraps it by
// assuming consecutive records are less than half a wrap apart.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace hlsprof::trace {

inline constexpr std::size_t kLineBytes = 64;  // 512-bit controller word
inline constexpr std::uint8_t kTagState = 0x5A;
inline constexpr std::uint8_t kTagEvent = 0xE7;

/// Sampled-counter kinds (paper §IV-B2: stalls, compute, memory).
enum class EventKind : std::uint8_t {
  stall_cycles = 1,
  int_ops = 2,
  fp_ops = 3,
  bytes_read = 4,
  bytes_written = 5,
};

/// Every thread's 2-bit state code in one word: thread t at bits
/// 2t..2t+1, so 64 threads fit in 128 bits. This is the bit order of a
/// state record's state bytes read as one little-endian number.
using StateWord = unsigned __int128;

/// Thread `t`'s 2-bit code in `w`.
inline unsigned state_code(StateWord w, int t) {
  return unsigned(w >> (2 * t)) & 3u;
}

/// `w` with thread `t`'s code replaced by `code` (0..3).
inline StateWord with_state(StateWord w, int t, unsigned code) {
  const int shift = 2 * t;
  return (w & ~(StateWord(3) << shift)) | (StateWord(code & 3u) << shift);
}

/// The 2 * num_threads low bits that carry codes (num_threads 1..64).
inline StateWord state_mask(int num_threads) {
  return num_threads >= 64 ? ~StateWord(0)
                           : (StateWord(1) << (2 * num_threads)) - 1;
}

struct StateRecord {
  std::uint32_t clock32 = 0;  // wrapping 32-bit cycle counter
  StateWord states = 0;       // every thread's code, packed
};

struct EventRecord {
  EventKind kind = EventKind::stall_cycles;
  std::uint8_t thread = 0;
  std::uint32_t clock32 = 0;  // window start, wrapping
  std::uint64_t value = 0;
};

/// Size in bytes of one state record for `num_threads` threads
/// (tag + 32-bit clock + ceil(2*T/8) state bytes).
constexpr std::size_t state_record_bytes(int num_threads) {
  return 1 /*tag*/ + 4 /*clock*/ +
         std::size_t((2 * num_threads + 7) / 8) /*2 bits per thread*/;
}

/// Size in bytes of one event record.
constexpr std::size_t event_record_bytes() {
  return 1 /*tag*/ + 1 /*kind*/ + 1 /*thread*/ + 4 /*clock*/ + 8 /*value*/;
}

/// Packs records into 512-bit lines, exactly as the hardware buffer does.
class LineEncoder {
 public:
  explicit LineEncoder(int num_threads);

  /// Append a record. Returns the number of lines completed by this append
  /// (0 or 1) — the profiling unit uses this to track buffer fill.
  /// Throws Error if `states` has a bit set above the 2 * num_threads
  /// code bits.
  int append_state(std::uint32_t clock32, StateWord states);
  int append_event(const EventRecord& r);

  /// Close the current line (pad with zeros) and swap all lines completed
  /// since the last take into `burst`, each exactly kLineBytes. What
  /// `burst` held is dropped; its capacity takes the next lines, so a
  /// caller that keeps one buffer stops allocating.
  void take_lines(std::vector<std::uint8_t>& burst);

  /// Completed, untaken lines currently held.
  std::size_t pending_lines() const { return full_bytes_.size() / kLineBytes; }
  bool line_open() const { return fill_ != 0; }

 private:
  int ensure_fits(std::size_t record_bytes);
  void close_line();
  void put_u8(std::uint8_t v) { line_[fill_++] = v; }
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void bump_count();

  int num_threads_;
  std::size_t state_bytes_;  // ceil(2 * num_threads / 8)
  std::array<std::uint8_t, kLineBytes> line_{};  // open line, line_[0]=count
  std::size_t fill_ = 0;                 // bytes used in line_; 0: none open
  std::vector<std::uint8_t> full_bytes_;  // completed lines
};

/// Decoded raw trace.
struct DecodedTrace {
  std::vector<StateRecord> states;   // clock32 already unwrapped into clock
  std::vector<EventRecord> events;
  std::vector<cycle_t> state_clocks;  // unwrapped clocks, parallel to states
  std::vector<cycle_t> event_clocks;  // unwrapped clocks, parallel to events
};

/// Incremental 32-bit clock unwrapper: interprets each new clock as a
/// signed delta from the previous one, so consecutive records less than
/// half a wrap apart unwrap to monotone 64-bit cycles (small backwards
/// steps of lagged event windows are preserved, clamped at zero). One
/// instance persists across flush bursts in the streaming decoder.
class ClockUnwrapper {
 public:
  /// Unwrap the next 32-bit clock.
  cycle_t feed(std::uint32_t c32);

 private:
  bool started_ = false;
  std::uint32_t last_ = 0;
  cycle_t base_ = 0;
};

/// Decode a span of 512-bit lines produced by LineEncoder. Throws Error on
/// malformed framing (naming the offending line's byte offset).
/// `num_threads` must match the encoder's. Thin wrapper over
/// trace::StreamingDecoder (streaming.hpp) — one feed() of the whole span.
DecodedTrace decode_lines(const std::uint8_t* data, std::size_t bytes,
                          int num_threads);

}  // namespace hlsprof::trace
