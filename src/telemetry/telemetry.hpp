// Host-side telemetry: a process-wide registry of monotonic counters,
// gauges, and fixed-bucket histograms, plus span (phase) tracing — the
// measurement substrate for the host pipeline (HLS compiler, simulator,
// streaming decoder, worker pool, design cache). Deliberately decoupled
// from the *device* profiling unit (src/profiling), which models the
// paper's in-FPGA tracer: telemetry observes the toolchain itself.
//
// Design rules:
//  - Near-zero cost when disabled: every mutation starts with one relaxed
//    atomic load of the enabled flag and returns; no locks, no clock
//    reads, no allocation on the disabled path. Instrumentation sites are
//    kept at coarse granularity (per run / per burst / per job, never per
//    simulated cycle or per record), so even the enabled path is cheap.
//  - Determinism: telemetry never feeds back into simulation results or
//    canonical report bytes. Exports go to their own sidecar files.
//    Wall-clock timestamps live only here.
//  - Thread safety: metric mutation is lock-free (relaxed atomics —
//    counters are exact under concurrency); registration and span/sample
//    recording take a registry mutex (cold paths).
//
// The default instance is Registry::global(), disabled until something
// (e.g. `hlsprof-run --telemetry-out`) calls enable(true). Tests may
// construct private registries.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace hlsprof::telemetry {

class Registry;

/// Monotonically increasing event count (exact under concurrency).
class Counter {
 public:
  void add(long long n = 1);
  long long value() const { return v_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }
  const std::string& unit() const { return unit_; }

 private:
  friend class Registry;
  Counter(const Registry* owner, std::string name, std::string unit)
      : owner_(owner), name_(std::move(name)), unit_(std::move(unit)) {}
  const Registry* owner_;
  std::string name_;
  std::string unit_;
  std::atomic<long long> v_{0};
};

/// Last-written value (e.g. a rate or an in-flight level). set() and
/// add() also record a timestamped sample for the Chrome-trace counter
/// track when the registry is enabled.
class Gauge {
 public:
  void set(double v);
  /// Relative adjustment (for in-flight style gauges); exact under
  /// concurrency via compare-exchange.
  void add(double delta);
  double value() const { return v_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }
  const std::string& unit() const { return unit_; }

 private:
  friend class Registry;
  Gauge(Registry* owner, int index, std::string name, std::string unit)
      : owner_(owner),
        index_(index),
        name_(std::move(name)),
        unit_(std::move(unit)) {}
  Registry* owner_;
  int index_;
  std::string name_;
  std::string unit_;
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram: `bounds` are inclusive upper edges, plus one
/// implicit overflow bucket. Bucket counts, total count, and sum are all
/// exact under concurrency.
class Histogram {
 public:
  void observe(double v);

  long long count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::vector<double>& bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  std::vector<long long> bucket_counts() const;
  const std::string& name() const { return name_; }
  const std::string& unit() const { return unit_; }

 private:
  friend class Registry;
  Histogram(const Registry* owner, std::string name, std::string unit,
            std::vector<double> bounds);
  const Registry* owner_;
  std::string name_;
  std::string unit_;
  std::vector<double> bounds_;  // sorted on construction
  std::unique_ptr<std::atomic<long long>[]> buckets_;
  std::atomic<long long> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Exponential bucket edges: first, first*factor, ... (`n` edges).
std::vector<double> exp_bounds(double first, double factor, int n);

/// One finished phase span, timestamps in µs since the registry epoch.
struct SpanView {
  std::string name;
  std::string cat;
  int track = 0;
  std::uint64_t begin_us = 0;
  std::uint64_t end_us = 0;
};

/// One gauge sample (for Chrome counter tracks).
struct SampleView {
  int gauge_index = 0;
  std::uint64_t ts_us = 0;
  double value = 0.0;
};

struct CounterView {
  std::string name, unit;
  long long value = 0;
};
struct GaugeView {
  std::string name, unit;
  double value = 0.0;
};
struct HistogramView {
  std::string name, unit;
  std::vector<double> bounds;
  std::vector<long long> buckets;  // bounds.size() + 1
  long long count = 0;
  double sum = 0.0;
};

/// Point-in-time copy of everything a registry holds (export input).
struct Snapshot {
  bool enabled = false;
  std::vector<CounterView> counters;      // name-sorted
  std::vector<GaugeView> gauges;          // name-sorted
  std::vector<HistogramView> histograms;  // name-sorted
  std::vector<std::string> tracks;        // index == track id
  std::vector<std::string> gauge_names;   // index == SampleView::gauge_index
  std::vector<SpanView> spans;            // recording order
  std::vector<SampleView> samples;        // recording order
  long long spans_dropped = 0;
  long long samples_dropped = 0;
};

class Registry {
 public:
  Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide instance every instrumentation site reports to.
  /// Starts disabled.
  static Registry& global();

  void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Find-or-create by name. Returned references are stable for the
  /// registry's lifetime. Units are informational (first registration
  /// wins); histogram bounds likewise.
  Counter& counter(std::string_view name, std::string_view unit = "");
  Gauge& gauge(std::string_view name, std::string_view unit = "");
  Histogram& histogram(std::string_view name, std::vector<double> bounds,
                       std::string_view unit = "");

  /// Microseconds since this registry was constructed (steady clock).
  std::uint64_t now_us() const;

  // ---- spans / tracks --------------------------------------------------
  /// Register a named track (one Chrome-trace row). Returns its id.
  int register_track(std::string label);
  /// Bind the calling thread to `track` for spans recorded through it.
  void bind_thread_track(int track);
  /// The calling thread's bound track; auto-registers "thread-<n>" on
  /// first use from an unbound thread.
  int thread_track();

  /// Record a finished span with caller-supplied timestamps on the
  /// calling thread's track. No-op when disabled. Bounded storage: spans
  /// beyond the cap are counted as dropped, not stored.
  void record_span(std::string name, std::string cat, std::uint64_t begin_us,
                   std::uint64_t end_us);
  void record_span_on(int track, std::string name, std::string cat,
                      std::uint64_t begin_us, std::uint64_t end_us);

  /// Internal hook for Gauge sampling (bounded like spans).
  void record_sample(int gauge_index, std::uint64_t ts_us, double value);

  /// Deep copy of current state (metrics, spans, samples, tracks).
  Snapshot snapshot() const;

  /// Zero all metric values and drop spans/samples; registrations, track
  /// ids, and the enabled flag survive. For tests.
  void reset_values();

 private:
  static constexpr std::size_t kMaxSpans = std::size_t{1} << 18;
  static constexpr std::size_t kMaxSamples = std::size_t{1} << 16;

  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mu_;
  // unique_ptr storage: metric objects hold atomics (immovable), and the
  // references handed out must stay stable as the vectors grow.
  std::vector<std::unique_ptr<Counter>> counters_;
  std::vector<std::unique_ptr<Gauge>> gauges_;
  std::vector<std::unique_ptr<Histogram>> histograms_;
  std::unordered_map<std::string, Counter*> counter_by_name_;
  std::unordered_map<std::string, Gauge*> gauge_by_name_;
  std::unordered_map<std::string, Histogram*> histogram_by_name_;
  std::vector<std::string> tracks_;
  std::vector<SpanView> spans_;
  std::vector<SampleView> samples_;
  long long spans_dropped_ = 0;
  long long samples_dropped_ = 0;
};

/// RAII phase span against the registry's own clock: captures begin on
/// construction, records on destruction (or explicit end()). Everything
/// is a no-op when the registry is disabled at construction time. For
/// caller-threaded timestamps, use Registry::record_span directly.
class Span {
 public:
  Span(Registry& r, std::string name, std::string cat = std::string())
      : reg_(r.enabled() ? &r : nullptr) {
    if (reg_ == nullptr) return;
    name_ = std::move(name);
    cat_ = std::move(cat);
    begin_us_ = reg_->now_us();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { end(); }

  void end() {
    if (reg_ == nullptr) return;
    reg_->record_span(std::move(name_), std::move(cat_), begin_us_,
                      reg_->now_us());
    reg_ = nullptr;
  }

 private:
  Registry* reg_;
  std::string name_;
  std::string cat_;
  std::uint64_t begin_us_ = 0;
};

}  // namespace hlsprof::telemetry
