#include "paraver/analysis.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace hlsprof::paraver {

using trace::EventKind;
using trace::TimedTrace;

namespace {
std::vector<double> rate_series_impl(const TimedTrace& t, EventKind kind,
                                     int tid /* -1 = all */) {
  HLSPROF_CHECK(t.sampling_period > 0,
                "trace has no event samples (profiling events disabled?)");
  const std::size_t n =
      std::size_t((t.duration + t.sampling_period - 1) / t.sampling_period);
  std::vector<double> out(std::max<std::size_t>(n, 1), 0.0);
  for (const trace::EventSample& e : t.events) {
    if (e.kind != kind) continue;
    if (tid >= 0 && e.thread != thread_id_t(tid)) continue;
    const std::size_t w = std::size_t(e.t / t.sampling_period);
    if (w < out.size()) out[w] += double(e.value);
  }
  for (double& v : out) v /= double(t.sampling_period);
  return out;
}
}  // namespace

std::vector<double> rate_series(const TimedTrace& t, EventKind kind) {
  return rate_series_impl(t, kind, -1);
}

std::vector<double> rate_series_thread(const TimedTrace& t, EventKind kind,
                                       thread_id_t tid) {
  return rate_series_impl(t, kind, int(tid));
}

double bytes_per_cycle_to_gbs(double bytes_per_cycle, double fmax_mhz) {
  return bytes_per_cycle * fmax_mhz * 1e6 / 1e9;
}

double gflops(long long fp_ops, cycle_t cycles, double fmax_mhz) {
  if (cycles == 0) return 0.0;
  const double seconds = double(cycles) / (fmax_mhz * 1e6);
  return double(fp_ops) / seconds / 1e9;
}

StateSummary summarize_states(const TimedTrace& t) {
  // One pass over the intervals; each fraction is the one
  // TimedTrace::state_fraction(s) computes.
  const std::array<cycle_t, 4> cycles = t.state_cycles();
  const auto fraction = [&](sim::ThreadState s) {
    if (t.duration == 0 || t.num_threads == 0) return 0.0;
    return double(cycles[std::size_t(s)]) /
           (double(t.duration) * double(t.num_threads));
  };
  StateSummary s;
  s.idle = fraction(sim::ThreadState::idle);
  s.running = fraction(sim::ThreadState::running);
  s.critical = fraction(sim::ThreadState::critical);
  s.spinning = fraction(sim::ThreadState::spinning);
  return s;
}

double PhaseProfile::overlap_fraction() const {
  const int denom = overlap + compute_only;
  return denom == 0 ? 0.0 : double(overlap) / double(denom);
}

namespace {
PhaseProfile phase_profile_from(const std::vector<double>& rd,
                                const std::vector<double>& wr,
                                const std::vector<double>& fp,
                                double mem_threshold_bytes_per_cycle,
                                double fp_threshold_ops_per_cycle);
}  // namespace

PhaseProfile phase_profile(const TimedTrace& t,
                           double mem_threshold_bytes_per_cycle,
                           double fp_threshold_ops_per_cycle) {
  return phase_profile_from(rate_series(t, EventKind::bytes_read),
                            rate_series(t, EventKind::bytes_written),
                            rate_series(t, EventKind::fp_ops),
                            mem_threshold_bytes_per_cycle,
                            fp_threshold_ops_per_cycle);
}

PhaseProfile phase_profile_thread(const TimedTrace& t, thread_id_t tid,
                                  double mem_threshold_bytes_per_cycle,
                                  double fp_threshold_ops_per_cycle) {
  return phase_profile_from(
      rate_series_thread(t, EventKind::bytes_read, tid),
      rate_series_thread(t, EventKind::bytes_written, tid),
      rate_series_thread(t, EventKind::fp_ops, tid),
      mem_threshold_bytes_per_cycle, fp_threshold_ops_per_cycle);
}

namespace {
PhaseProfile phase_profile_from(const std::vector<double>& rd,
                                const std::vector<double>& wr,
                                const std::vector<double>& fp,
                                double mem_threshold_bytes_per_cycle,
                                double fp_threshold_ops_per_cycle) {
  const std::size_t n = std::max({rd.size(), wr.size(), fp.size()});
  auto at = [](const std::vector<double>& v, std::size_t i) {
    return i < v.size() ? v[i] : 0.0;
  };

  PhaseProfile p;
  int prev_kind = -1;  // 0 mem-only, 1 compute-only
  for (std::size_t i = 0; i < n; ++i) {
    const bool mem =
        at(rd, i) + at(wr, i) >= mem_threshold_bytes_per_cycle;
    const bool comp = at(fp, i) >= fp_threshold_ops_per_cycle;
    ++p.windows;
    if (mem && comp) {
      ++p.overlap;
      prev_kind = -1;
    } else if (mem) {
      ++p.mem_only;
      if (prev_kind == 1) ++p.phase_changes;
      prev_kind = 0;
    } else if (comp) {
      ++p.compute_only;
      if (prev_kind == 0) ++p.phase_changes;
      prev_kind = 1;
    } else {
      ++p.quiet;
    }
  }
  return p;
}
}  // namespace

double weighted_compute_mem_overlap(const TimedTrace& t, thread_id_t tid,
                                    double mem_threshold_bytes_per_cycle) {
  const auto rd = rate_series_thread(t, EventKind::bytes_read, tid);
  const auto wr = rate_series_thread(t, EventKind::bytes_written, tid);
  const auto fp = rate_series_thread(t, EventKind::fp_ops, tid);
  double total = 0.0;
  double overlapped = 0.0;
  for (std::size_t i = 0; i < fp.size(); ++i) {
    if (fp[i] <= 0.0) continue;
    total += fp[i];
    const double mem =
        (i < rd.size() ? rd[i] : 0.0) + (i < wr.size() ? wr[i] : 0.0);
    if (mem >= mem_threshold_bytes_per_cycle) overlapped += fp[i];
  }
  return total == 0.0 ? 0.0 : overlapped / total;
}

double mean_bandwidth(const TimedTrace& t) {
  if (t.duration == 0) return 0.0;
  const double bytes = double(t.event_total(EventKind::bytes_read) +
                              t.event_total(EventKind::bytes_written));
  return bytes / double(t.duration);
}

double peak_bandwidth(const TimedTrace& t) {
  const std::vector<double> rd = rate_series(t, EventKind::bytes_read);
  const std::vector<double> wr = rate_series(t, EventKind::bytes_written);
  double peak = 0.0;
  const std::size_t n = std::max(rd.size(), wr.size());
  for (std::size_t i = 0; i < n; ++i) {
    const double v =
        (i < rd.size() ? rd[i] : 0.0) + (i < wr.size() ? wr[i] : 0.0);
    peak = std::max(peak, v);
  }
  return peak;
}

DurationHistogram state_duration_histogram(const TimedTrace& t,
                                           sim::ThreadState state) {
  DurationHistogram h;
  h.state = state;
  bool first = true;
  for (const auto& thread : t.thread_states) {
    for (const trace::StateInterval& iv : thread) {
      if (iv.state != state) continue;
      const cycle_t dur = iv.end - iv.begin;
      if (dur == 0) continue;
      std::size_t bucket = 0;
      while ((cycle_t(1) << (bucket + 1)) <= dur) ++bucket;
      if (bucket >= h.log2_buckets.size()) {
        h.log2_buckets.resize(bucket + 1, 0);
      }
      ++h.log2_buckets[bucket];
      ++h.total_intervals;
      h.total_cycles += dur;
      if (first) {
        h.min_duration = h.max_duration = dur;
        first = false;
      } else {
        h.min_duration = std::min(h.min_duration, dur);
        h.max_duration = std::max(h.max_duration, dur);
      }
    }
  }
  return h;
}

std::string sparkline(const std::vector<double>& series, int buckets) {
  HLSPROF_CHECK(buckets > 0, "sparkline needs at least one bucket");
  std::vector<double> agg(std::size_t(buckets), 0.0);
  if (!series.empty()) {
    for (std::size_t i = 0; i < series.size(); ++i) {
      const std::size_t b =
          std::min(std::size_t(buckets) - 1,
                   i * std::size_t(buckets) / series.size());
      agg[b] = std::max(agg[b], series[i]);
    }
  }
  const double peak = *std::max_element(agg.begin(), agg.end());
  std::string out = "[";
  for (double v : agg) {
    const int level =
        peak <= 0.0 ? 0 : int(std::lround(v / peak * 9.0));
    out.push_back(char('0' + std::clamp(level, 0, 9)));
  }
  out += strf("] peak=%.3f", peak);
  return out;
}

}  // namespace hlsprof::paraver
