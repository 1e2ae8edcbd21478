#include "profiling/unit.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace hlsprof::profiling {

using trace::EventKind;
using trace::EventRecord;

namespace {
EventKind metric_kind(int m) {
  switch (m) {
    case 0: return EventKind::stall_cycles;
    case 1: return EventKind::int_ops;
    case 2: return EventKind::fp_ops;
    case 3: return EventKind::bytes_read;
    case 4: return EventKind::bytes_written;
  }
  fail("bad metric index");
}

// How far (in cycles) behind the newest observed timestamp a sampling
// window is closed and its records emitted. Late-arriving aggregates
// (e.g. compute that executed concurrently with a long prefetch) are
// still accepted within this lag; at least one sampling period is always
// kept open.
constexpr cycle_t kFinalizeLag = 16384;
}  // namespace

ProfilingUnit::ProfilingUnit(const hls::Design& design,
                             const ProfilingConfig& config,
                             sim::ExternalMemory& mem)
    : d_(design),
      cfg_(config),
      mem_(mem),
      T_(design.kernel.num_threads),
      encoder_(design.kernel.num_threads) {
  HLSPROF_CHECK(cfg_.sampling_period > 0, "sampling period must be positive");
  HLSPROF_CHECK(cfg_.buffer_lines > cfg_.flush_headroom_lines,
                "buffer must be larger than the flush headroom");
  ring_bytes_ = (cfg_.trace_region_bytes / trace::kLineBytes) *
                trace::kLineBytes;
  HLSPROF_CHECK(ring_bytes_ >= trace::kLineBytes,
                "trace region must hold at least one 512-bit line");
  trace_base_ = mem_.allocate("profiling-trace", cfg_.trace_region_bytes);
  stride_ = std::size_t(kMetrics * T_);
  lag_ = std::max(kFinalizeLag, cfg_.sampling_period);
  close_at_ = cfg_.sampling_period + lag_;
}

inline double* ProfilingUnit::window(std::size_t w) {
  if (w - next_window_ >= open_) [[unlikely]] open_through(w);
  const std::size_t slot = w & (ring_windows_ - 1);
  return ring_.data() + slot * stride_;
}

void ProfilingUnit::open_through(std::size_t w) {
  const std::size_t need = w - next_window_ + 1;
  if (need > ring_windows_) {
    std::size_t cap = std::max<std::size_t>(ring_windows_, 4);
    while (cap < need) cap *= 2;
    std::vector<double> ring(cap * stride_, 0.0);
    for (std::size_t j = 0; j < open_; ++j) {
      const std::size_t from = (next_window_ + j) & (ring_windows_ - 1);
      const std::size_t to = (next_window_ + j) & (cap - 1);
      std::copy_n(ring_.begin() + std::ptrdiff_t(from * stride_), stride_,
                  ring.begin() + std::ptrdiff_t(to * stride_));
    }
    ring_ = std::move(ring);
    ring_windows_ = cap;
    uncache();
  }
  open_ = need;
}

void ProfilingUnit::deposit(int metric, thread_id_t tid, cycle_t t,
                            double amount) {
  const std::size_t w = window_of(t);
  if (w < next_window_) return;  // that window was already emitted
  window(w)[std::size_t(metric * T_ + int(tid))] += amount;
}

void ProfilingUnit::deposit_range(int metric, thread_id_t tid, cycle_t t0,
                                  cycle_t t1, double amount) {
  if (t1 <= t0) return;
  const double span = double(t1 - t0);
  const std::size_t idx = std::size_t(metric * T_ + int(tid));
  if (t0 >= window_.lo && t1 <= window_.end) {  // inside the cached window
    window_.stall[idx] += amount * double(t1 - t0) / span;
    return;
  }
  const cycle_t p = cfg_.sampling_period;
  const std::size_t last = window_of(t1 - 1);
  if (last < next_window_) return;
  for (std::size_t i = std::max(window_of(t0), next_window_); i <= last;
       ++i) {
    const cycle_t lo = std::max(t0, cycle_t(i) * p);
    const cycle_t hi = std::min(t1, cycle_t(i + 1) * p);
    window(i)[idx] += amount * double(hi - lo) / span;
  }
}

void ProfilingUnit::note_time(cycle_t t) {
  cycle_t& hw = window_.high_water;
  hw = std::max(hw, t);
  // Finalize windows a bounded lag behind the high-water mark:
  // late-arriving aggregates (concurrent-branch compute, request-side
  // skew the paper also accepts) are still accounted within the lag.
  if (hw >= close_at_ && cfg_.any_events()) {
    finalize_windows_up_to(hw - lag_);
  }
}

void ProfilingUnit::raise_high_water(cycle_t t) {
  window_.high_water = std::max(window_.high_water, t);
  if (window_.high_water >= close_at_) uncache();
}

void ProfilingUnit::cache_window() {
  const std::size_t w = window_of(window_.high_water);
  double* acc = window(w);
  window_.lo = cycle_t(w) * cfg_.sampling_period;
  window_.end = std::min(window_.lo + cfg_.sampling_period, close_at_);
  window_.stall = acc;
  window_.int_ops = cfg_.enable_compute_events ? acc + T_ : nullptr;
  window_.fp_ops = cfg_.enable_compute_events ? acc + 2 * T_ : nullptr;
  window_.read = acc + 3 * T_;
  window_.written = acc + 4 * T_;
}

void ProfilingUnit::on_state(thread_id_t tid, sim::ThreadState state,
                             cycle_t t) {
  if (!cfg_.enable_states) return;
  HLSPROF_CHECK(tid < thread_id_t(T_), "state for unknown thread");
  note_time(t);
  const auto code = unsigned(state);
  if (trace::state_code(state_now_, int(tid)) == code &&
      last_state_record_t_ != kNoCycle) {
    return;
  }
  // Coalesce multiple changes in the same cycle into one record: defer
  // emission until the clock advances (paper §IV-B1: "because the state
  // can change for multiple threads at once ... we record the current
  // state for all threads together").
  if (last_state_record_t_ != kNoCycle && last_state_record_t_ != t) {
    append_state_record(last_state_record_t_);
  }
  state_now_ = trace::with_state(state_now_, int(tid), code);
  last_state_record_t_ = t;
  state_dirty_ = true;
}

void ProfilingUnit::append_state_record(cycle_t t) {
  const int completed =
      encoder_.append_state(std::uint32_t(t & 0xffffffffULL), state_now_);
  buffered_lines_ += std::size_t(completed);
  ++state_records_;
  state_dirty_ = false;
  maybe_flush(t, /*force=*/false);
}

void ProfilingUnit::on_compute(thread_id_t tid, long long int_ops,
                               long long fp_ops, cycle_t t0, cycle_t t1) {
  if (!cfg_.enable_compute_events) return;
  // Spans may cover many windows (fast-forwarded phases are unbounded
  // aggregates, unlike the bounded-lag skew note_time tolerates), and
  // several span hooks can target the same [t0, t1) back to back — so
  // only raise the high-water mark, never finalize: windows emitted
  // mid-sequence would silently drop the later spans' share. The next
  // point event (or on_finish) advances the window clock.
  if (int_ops > 0) deposit_range(1, tid, t0, t1, double(int_ops));
  if (fp_ops > 0) deposit_range(2, tid, t0, t1, double(fp_ops));
  raise_high_water(t1);
  // Re-cache as on_request does, unless the mark reached the next close
  // (only a point event may close windows).
  if (cfg_.enable_memory_events && cfg_.enable_stall_events &&
      window_.high_water < close_at_) {
    cache_window();
  }
}

void ProfilingUnit::on_request(thread_id_t tid, cycle_t accepted,
                               std::uint32_t bytes, bool is_write,
                               cycle_t expected, cycle_t stall) {
  if (cfg_.enable_memory_events) {
    note_time(accepted);
    deposit(is_write ? 4 : 3, tid, accepted, double(bytes));
  }
  if (stall > 0 && cfg_.enable_stall_events) {
    note_time(expected);
    deposit(0, tid, expected, double(stall));
  }
  // The inline path counts both metrics, so it needs both collectors.
  if (cfg_.enable_memory_events && cfg_.enable_stall_events) cache_window();
}

void ProfilingUnit::on_mem_span(thread_id_t tid, cycle_t t0, cycle_t t1,
                                std::uint64_t bytes_read,
                                std::uint64_t bytes_written) {
  if (!cfg_.enable_memory_events) return;
  // Deposit without finalizing windows (see on_compute).
  if (bytes_read > 0) deposit_range(3, tid, t0, t1, double(bytes_read));
  if (bytes_written > 0) {
    deposit_range(4, tid, t0, t1, double(bytes_written));
  }
  raise_high_water(t1);
}

void ProfilingUnit::on_stall_span(thread_id_t tid, cycle_t t0, cycle_t t1,
                                  cycle_t cycles) {
  if (!cfg_.enable_stall_events) return;
  // Deposit without finalizing windows (see on_compute).
  deposit_range(0, tid, t0, t1, double(cycles));
  raise_high_water(t1);
}

void ProfilingUnit::finalize_windows_up_to(cycle_t limit) {
  // Window w closes once (w + 1) * sampling_period <= limit.
  const std::size_t end = window_of(limit);
  while (next_window_ < end) {
    if (open_ == 0) {
      next_window_ = end;  // no sample reached these windows: all empty
      break;
    }
    double* acc =
        ring_.data() + (next_window_ & (ring_windows_ - 1)) * stride_;
    emit_window(next_window_, acc);  // writes nothing for an empty window
    std::fill_n(acc, stride_, 0.0);
    ++next_window_;
    --open_;
  }
  close_at_ = (cycle_t(next_window_) + 1) * cfg_.sampling_period + lag_;
  uncache();
}

void ProfilingUnit::emit_window(std::size_t w, const double* acc) {
  bool any = false;
  for (int m = 0; m < kMetrics; ++m) {
    const bool enabled = (m == 0 && cfg_.enable_stall_events) ||
                         ((m == 1 || m == 2) && cfg_.enable_compute_events) ||
                         ((m == 3 || m == 4) && cfg_.enable_memory_events);
    if (!enabled) continue;
    for (int t = 0; t < T_; ++t) {
      const double raw = acc[std::size_t(m * T_ + t)];
      const auto v = std::uint64_t(std::llround(raw));
      if (v == 0) continue;  // zero-suppression keeps the trace compact
      EventRecord r;
      r.kind = metric_kind(m);
      r.thread = std::uint8_t(t);
      r.clock32 =
          std::uint32_t((cycle_t(w) * cfg_.sampling_period) & 0xffffffffULL);
      r.value = v;
      buffered_lines_ += std::size_t(encoder_.append_event(r));
      ++event_records_;
      any = true;
    }
  }
  if (any) {
    maybe_flush((cycle_t(w) + 1) * cfg_.sampling_period, /*force=*/false);
  }
}

void ProfilingUnit::maybe_flush(cycle_t t, bool force) {
  const std::size_t fill = buffered_lines_ + (encoder_.line_open() ? 1 : 0);
  if (!force &&
      fill + std::size_t(cfg_.flush_headroom_lines) <
          std::size_t(cfg_.buffer_lines)) {
    return;
  }
  std::vector<std::uint8_t>& lines = burst_;
  encoder_.take_lines(lines);
  if (lines.empty()) return;
  // Without a streaming consumer the whole trace must stay resident for
  // the post-run decode, so the region bounds the trace. With a sink the
  // region is a ring: the host already consumed every line, overwriting
  // old ones is fine, and trace size is unbounded by region size.
  if (sink_ == nullptr) {
    HLSPROF_CHECK(
        trace_write_off_ + lines.size() <= cfg_.trace_region_bytes,
        strf("profiling trace region overflow (%zu bytes): increase "
             "trace_region_bytes, the sampling period, or install a "
             "streaming flush sink",
             cfg_.trace_region_bytes));
  }
  // Burst-write the buffer to DRAM through the shared controller: this is
  // the tracer's perturbation of the application (paper §IV-B1). The ring
  // modulo is a no-op until the first wrap, so pre-wrap traffic (and
  // therefore timing) is identical with and without a sink.
  for (std::size_t off = 0; off < lines.size(); off += trace::kLineBytes) {
    const addr_t dst = trace_base_ + (trace_write_off_ + off) % ring_bytes_;
    mem_.write_bytes(dst, lines.data() + off, trace::kLineBytes);
    (void)mem_.access(t, dst, std::uint32_t(trace::kLineBytes),
                      /*is_write=*/true);
  }
  trace_write_off_ += lines.size();
  buffered_lines_ = 0;
  ++flush_bursts_;
  peak_burst_bytes_ = std::max(peak_burst_bytes_, lines.size());
  if (sink_ != nullptr) sink_->on_burst(lines.data(), lines.size());
}

void ProfilingUnit::on_finish(cycle_t t) {
  HLSPROF_CHECK(!finished_, "on_finish called twice");
  finished_ = true;
  run_end_ = t;
  window_.high_water = std::max(window_.high_water, t);
  if (cfg_.enable_states && last_state_record_t_ != kNoCycle && state_dirty_) {
    append_state_record(last_state_record_t_);
  }
  if (cfg_.any_events()) {
    finalize_windows_up_to(window_.high_water + cfg_.sampling_period);
  }
  maybe_flush(t, /*force=*/true);
}

trace::DecodedTrace ProfilingUnit::decode() const {
  HLSPROF_CHECK(trace_write_off_ <= ring_bytes_,
                "trace ring wrapped (a streaming sink consumed the lines); "
                "the post-run batch decode is unavailable");
  std::vector<std::uint8_t> buf(trace_write_off_);
  mem_.read_bytes(trace_base_, buf.data(), buf.size());
  return trace::decode_lines(buf.data(), buf.size(), T_);
}

trace::TimedTrace ProfilingUnit::timeline() const {
  HLSPROF_CHECK(finished_, "timeline() before the run finished");
  return trace::build_timed_trace(decode(), T_, run_end_,
                                  cfg_.sampling_period);
}

}  // namespace hlsprof::profiling
