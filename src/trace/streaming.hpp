// Streaming trace decode: the host-side counterpart of the profiling
// unit's flush engine. Where the batch `decode_lines` needs the whole
// trace resident at once, a StreamingDecoder accepts flush bursts
// chunk-by-chunk — at any granularity, even mid-line — keeps the clock
// unwrapper alive across chunks, and hands validated records to a
// RecordSink as they complete. Peak host-side residency is one 512-bit
// line of carry plus whatever the producer's burst holds, independent of
// the run length.
//
// The pipeline the core API wires up per run:
//
//   ProfilingUnit::maybe_flush ──burst──▶ StreamingDecoder ──records──▶
//   TimedTraceBuilder (timed_trace.hpp) ──finish()──▶ TimedTrace
//
// All framing is validated on the read-back side (the hardware buffer is
// trusted nowhere): record counts are bounded by what a 64-byte line can
// physically hold for the design's thread count, tags and event kinds
// must be known, and every decode error names the absolute byte offset of
// the offending line in the stream.
#pragma once

#include <array>
#include <cstdint>

#include "trace/records.hpp"

namespace hlsprof::trace {

/// Consumer of raw flush bursts (whole 512-bit lines) as the profiling
/// unit writes them to external memory.
class FlushSink {
 public:
  virtual ~FlushSink() = default;
  virtual void on_burst(const std::uint8_t* data, std::size_t bytes) = 0;
};

/// Consumer of decoded records, clocks already unwrapped to 64 bits.
/// Records arrive in trace order (the order the encoder packed them). A
/// record reference is valid for the call only; copy it to keep it.
class RecordSink {
 public:
  virtual ~RecordSink() = default;
  virtual void on_state(const StateRecord& r, cycle_t t) = 0;
  virtual void on_event(const EventRecord& r, cycle_t t) = 0;
};

/// Most records one 64-byte line can hold for `num_threads` threads: the
/// count byte plus `n` copies of the smallest record (state or event,
/// whichever is smaller at this thread count). The decoder rejects lines
/// claiming more — a corrupt count byte cannot oversubscribe a line.
int max_records_per_line(int num_threads);

/// Incremental decoder of the 512-bit line stream. feed() accepts chunks
/// of any size and alignment; a partial trailing line is carried into the
/// next feed(). finish() rejects a torn final line. Also usable as a
/// FlushSink, so it can be plugged directly into
/// profiling::ProfilingUnit::set_flush_sink().
class StreamingDecoder final : public FlushSink {
 public:
  /// `sink` must outlive the decoder. `num_threads` must match the
  /// encoder's (1..64).
  StreamingDecoder(int num_threads, RecordSink& sink);

  /// Decode as many whole lines as `data` completes; buffer the rest.
  /// Throws Error on malformed framing, naming the line's byte offset.
  void feed(const std::uint8_t* data, std::size_t bytes);

  /// feed() plus a flush-burst telemetry tick (one per profiling-unit
  /// flush that reached the host pipeline).
  void on_burst(const std::uint8_t* data, std::size_t bytes) override;

  /// End of stream. Throws Error if a partial line is still buffered
  /// (torn final line).
  void finish();

  /// Total whole-line bytes decoded so far.
  std::size_t bytes_consumed() const { return consumed_; }
  /// Partial-line bytes currently carried (< kLineBytes).
  std::size_t carry_bytes() const { return carry_n_; }
  bool finished() const { return finished_; }

 private:
  /// Returns the number of records the line held.
  int decode_line(const std::uint8_t* line, std::size_t line_offset);

  int num_threads_;
  int max_records_;
  std::size_t state_bytes_;  // ceil(2 * num_threads / 8)
  StateWord state_mask_;     // the code bits of a state word
  RecordSink& sink_;
  ClockUnwrapper unwrap_;
  std::array<std::uint8_t, kLineBytes> carry_{};
  std::size_t carry_n_ = 0;
  std::size_t consumed_ = 0;
  bool finished_ = false;
};

}  // namespace hlsprof::trace
