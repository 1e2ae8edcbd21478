#include "trace/streaming.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "telemetry/telemetry.hpp"

namespace hlsprof::trace {

namespace {

/// Decoder telemetry handles, resolved once per process (the registry
/// hands out stable references). Mutation is a no-op while disabled.
struct DecoderMetrics {
  telemetry::Counter& bytes_in;
  telemetry::Counter& records_out;
  telemetry::Counter& carry_events;
  telemetry::Counter& flush_bursts;
  static DecoderMetrics& get() {
    auto& reg = telemetry::Registry::global();
    static DecoderMetrics m{
        reg.counter("trace.bytes_in", "bytes"),
        reg.counter("trace.records_out", "records"),
        reg.counter("trace.carry_events"),
        reg.counter("trace.flush_bursts"),
    };
    return m;
  }
};

/// Bounds-checked reader over one line: each take() checks a whole
/// record field group at once; errors carry the line's absolute offset
/// in the stream.
class Cursor {
 public:
  Cursor(const std::uint8_t* p, std::size_t line_offset)
      : p_(p), line_offset_(line_offset) {}
  /// The next `n` bytes of the line.
  const std::uint8_t* take(std::size_t n) {
    if (n > kLineBytes - i_) {
      fail(strf("trace record overruns its line at offset %zu",
                line_offset_));
    }
    const std::uint8_t* at = p_ + i_;
    i_ += n;
    return at;
  }

 private:
  const std::uint8_t* p_;
  std::size_t line_offset_;
  std::size_t i_ = 0;
};

/// Little-endian value of the `n` bytes at `p`.
template <class T>
T load_le(const std::uint8_t* p, std::size_t n) {
  T v = 0;
  for (std::size_t k = 0; k < n; ++k) v |= T(p[k]) << (8 * k);
  return v;
}

}  // namespace

int max_records_per_line(int num_threads) {
  const std::size_t smallest =
      std::min(state_record_bytes(num_threads), event_record_bytes());
  return int((kLineBytes - 1 /*count byte*/) / smallest);
}

StreamingDecoder::StreamingDecoder(int num_threads, RecordSink& sink)
    : num_threads_(num_threads),
      max_records_(max_records_per_line(num_threads)),
      state_bytes_(state_record_bytes(num_threads) - 5),
      sink_(sink) {
  HLSPROF_CHECK(num_threads >= 1 && num_threads <= 64,
                "StreamingDecoder thread count out of range");
  state_mask_ = state_mask(num_threads);
}

int StreamingDecoder::decode_line(const std::uint8_t* line,
                                  std::size_t line_offset) {
  Cursor c(line, line_offset);
  const int count = *c.take(1);
  if (count > max_records_) {
    fail(strf("implausible record count %d (max %d for %d threads) in trace "
              "line at offset %zu",
              count, max_records_, num_threads_, line_offset));
  }
  for (int r = 0; r < count; ++r) {
    const std::uint8_t tag = *c.take(1);
    if (tag == kTagState) {
      // Clock and state bytes; the padding bits of the last state byte
      // are not codes and are ignored.
      const std::uint8_t* p = c.take(4 + state_bytes_);
      StateRecord sr;
      sr.clock32 = load_le<std::uint32_t>(p, 4);
      sr.states = load_le<StateWord>(p + 4, state_bytes_) & state_mask_;
      sink_.on_state(sr, unwrap_.feed(sr.clock32));
    } else if (tag == kTagEvent) {
      // Kind, thread, clock and value.
      const std::uint8_t* p = c.take(event_record_bytes() - 1);
      const std::uint8_t kind = p[0];
      if (kind < 1 || kind > 5) {
        fail(strf("unknown event kind %u in trace line at offset %zu",
                  unsigned(kind), line_offset));
      }
      EventRecord er;
      er.kind = EventKind(kind);
      er.thread = p[1];
      er.clock32 = load_le<std::uint32_t>(p + 2, 4);
      er.value = load_le<std::uint64_t>(p + 6, 8);
      sink_.on_event(er, unwrap_.feed(er.clock32));
    } else {
      fail(strf("bad record tag 0x%02X in trace line at offset %zu", tag,
                line_offset));
    }
  }
  return count;
}

void StreamingDecoder::feed(const std::uint8_t* data, std::size_t bytes) {
  HLSPROF_CHECK(!finished_, "StreamingDecoder::feed after finish");
  const bool telemetry_on = telemetry::Registry::global().enabled();
  const std::size_t fed = bytes;
  long long records = 0;
  while (bytes > 0) {
    if (carry_n_ > 0 || bytes < kLineBytes) {
      const std::size_t take = std::min(kLineBytes - carry_n_, bytes);
      std::memcpy(carry_.data() + carry_n_, data, take);
      carry_n_ += take;
      data += take;
      bytes -= take;
      if (carry_n_ == kLineBytes) {
        records += decode_line(carry_.data(), consumed_);
        consumed_ += kLineBytes;
        carry_n_ = 0;
      }
    } else {
      records += decode_line(data, consumed_);
      consumed_ += kLineBytes;
      data += kLineBytes;
      bytes -= kLineBytes;
    }
  }
  if (telemetry_on) {
    DecoderMetrics& m = DecoderMetrics::get();
    m.bytes_in.add(static_cast<long long>(fed));
    m.records_out.add(records);
    // A partial line survived this feed — the next chunk must reassemble
    // it via the carry buffer.
    if (carry_n_ > 0) m.carry_events.add(1);
  }
}

void StreamingDecoder::on_burst(const std::uint8_t* data, std::size_t bytes) {
  if (telemetry::Registry::global().enabled()) {
    DecoderMetrics::get().flush_bursts.add(1);
  }
  feed(data, bytes);
}

void StreamingDecoder::finish() {
  if (carry_n_ != 0) {
    fail(strf("torn final trace line: %zu stray bytes at offset %zu",
              carry_n_, consumed_));
  }
  finished_ = true;
}

namespace {

/// RecordSink that reassembles the batch DecodedTrace form.
class CollectSink final : public RecordSink {
 public:
  explicit CollectSink(DecodedTrace& out) : out_(out) {}
  void on_state(const StateRecord& r, cycle_t t) override {
    out_.states.push_back(r);
    out_.state_clocks.push_back(t);
  }
  void on_event(const EventRecord& r, cycle_t t) override {
    out_.events.push_back(r);
    out_.event_clocks.push_back(t);
  }

 private:
  DecodedTrace& out_;
};

}  // namespace

DecodedTrace decode_lines(const std::uint8_t* data, std::size_t bytes,
                          int num_threads) {
  HLSPROF_CHECK(bytes % kLineBytes == 0,
                "trace region is not a whole number of lines");
  DecodedTrace out;
  CollectSink sink(out);
  StreamingDecoder decoder(num_threads, sink);
  decoder.feed(data, bytes);
  decoder.finish();
  return out;
}

}  // namespace hlsprof::trace
