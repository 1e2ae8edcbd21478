#include "telemetry/telemetry.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace hlsprof::telemetry {

namespace {

/// Exact concurrent add for atomic<double> (fetch_add on floating point
/// is C++20 but not universally lock-free-lowered; CAS is portable).
void atomic_add(std::atomic<double>& a, double delta) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + delta,
                                  std::memory_order_relaxed,
                                  std::memory_order_relaxed)) {
  }
}

/// Per-thread track binding, keyed by registry so private test registries
/// do not alias the global one's bindings.
struct ThreadBinding {
  const Registry* owner = nullptr;
  int track = -1;
};
thread_local ThreadBinding tl_binding;

}  // namespace

// ---- Counter / Gauge / Histogram -------------------------------------------

void Counter::add(long long n) {
  if (!owner_->enabled()) return;
  v_.fetch_add(n, std::memory_order_relaxed);
}

void Gauge::set(double v) {
  if (!owner_->enabled()) return;
  v_.store(v, std::memory_order_relaxed);
  owner_->record_sample(index_, owner_->now_us(), v);
}

void Gauge::add(double delta) {
  if (!owner_->enabled()) return;
  atomic_add(v_, delta);
  owner_->record_sample(index_, owner_->now_us(),
                        v_.load(std::memory_order_relaxed));
}

Histogram::Histogram(const Registry* owner, std::string name, std::string unit,
                     std::vector<double> bounds)
    : owner_(owner),
      name_(std::move(name)),
      unit_(std::move(unit)),
      bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  buckets_ = std::make_unique<std::atomic<long long>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

void Histogram::observe(double v) {
  if (!owner_->enabled()) return;
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const std::size_t idx = std::size_t(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, v);
}

std::vector<long long> Histogram::bucket_counts() const {
  std::vector<long long> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

std::vector<double> exp_bounds(double first, double factor, int n) {
  HLSPROF_CHECK(first > 0 && factor > 1 && n > 0,
                "exp_bounds: need first > 0, factor > 1, n > 0");
  std::vector<double> out;
  out.reserve(std::size_t(n));
  double b = first;
  for (int i = 0; i < n; ++i) {
    out.push_back(b);
    b *= factor;
  }
  return out;
}

// ---- Registry ---------------------------------------------------------------

Registry::Registry() : epoch_(std::chrono::steady_clock::now()) {
  tracks_.push_back("main");  // track 0: whichever thread drives the run
}

Registry& Registry::global() {
  static Registry r;
  return r;
}

std::uint64_t Registry::now_us() const {
  return std::uint64_t(std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - epoch_)
                           .count());
}

Counter& Registry::counter(std::string_view name, std::string_view unit) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string key(name);
  auto it = counter_by_name_.find(key);
  if (it != counter_by_name_.end()) return *it->second;
  counters_.emplace_back(new Counter(this, key, std::string(unit)));
  Counter* c = counters_.back().get();
  counter_by_name_.emplace(key, c);
  return *c;
}

Gauge& Registry::gauge(std::string_view name, std::string_view unit) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string key(name);
  auto it = gauge_by_name_.find(key);
  if (it != gauge_by_name_.end()) return *it->second;
  gauges_.emplace_back(
      new Gauge(this, int(gauges_.size()), key, std::string(unit)));
  Gauge* g = gauges_.back().get();
  gauge_by_name_.emplace(key, g);
  return *g;
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<double> bounds,
                               std::string_view unit) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string key(name);
  auto it = histogram_by_name_.find(key);
  if (it != histogram_by_name_.end()) return *it->second;
  HLSPROF_CHECK(!bounds.empty(), "histogram '" + key + "' needs bucket bounds");
  histograms_.emplace_back(
      new Histogram(this, key, std::string(unit), std::move(bounds)));
  Histogram* h = histograms_.back().get();
  histogram_by_name_.emplace(key, h);
  return *h;
}

int Registry::register_track(std::string label) {
  std::lock_guard<std::mutex> lock(mu_);
  tracks_.push_back(std::move(label));
  return int(tracks_.size()) - 1;
}

void Registry::bind_thread_track(int track) {
  tl_binding.owner = this;
  tl_binding.track = track;
}

int Registry::thread_track() {
  if (tl_binding.owner == this && tl_binding.track >= 0) {
    return tl_binding.track;
  }
  int id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = int(tracks_.size());
    tracks_.push_back("thread-" + std::to_string(id));
  }
  tl_binding.owner = this;
  tl_binding.track = id;
  return id;
}

void Registry::record_span(std::string name, std::string cat,
                           std::uint64_t begin_us, std::uint64_t end_us) {
  if (!enabled()) return;
  record_span_on(thread_track(), std::move(name), std::move(cat), begin_us,
                 end_us);
}

void Registry::record_span_on(int track, std::string name, std::string cat,
                              std::uint64_t begin_us, std::uint64_t end_us) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= kMaxSpans) {
    ++spans_dropped_;
    return;
  }
  spans_.push_back(
      SpanView{std::move(name), std::move(cat), track, begin_us, end_us});
}

void Registry::record_sample(int gauge_index, std::uint64_t ts_us,
                             double value) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (samples_.size() >= kMaxSamples) {
    ++samples_dropped_;
    return;
  }
  samples_.push_back(SampleView{gauge_index, ts_us, value});
}

Snapshot Registry::snapshot() const {
  Snapshot s;
  s.enabled = enabled();
  std::lock_guard<std::mutex> lock(mu_);
  s.counters.reserve(counters_.size());
  for (const auto& c : counters_) {
    s.counters.push_back(CounterView{c->name(), c->unit(), c->value()});
  }
  s.gauges.reserve(gauges_.size());
  s.gauge_names.resize(gauges_.size());
  for (const auto& g : gauges_) {
    s.gauges.push_back(GaugeView{g->name(), g->unit(), g->value()});
    s.gauge_names[std::size_t(g->index_)] = g->name();
  }
  s.histograms.reserve(histograms_.size());
  for (const auto& h : histograms_) {
    s.histograms.push_back(HistogramView{h->name(), h->unit(), h->bounds(),
                                         h->bucket_counts(), h->count(),
                                         h->sum()});
  }
  const auto by_name = [](const auto& a, const auto& b) {
    return a.name < b.name;
  };
  std::sort(s.counters.begin(), s.counters.end(), by_name);
  std::sort(s.gauges.begin(), s.gauges.end(), by_name);
  std::sort(s.histograms.begin(), s.histograms.end(), by_name);
  s.tracks = tracks_;
  s.spans = spans_;
  s.samples = samples_;
  s.spans_dropped = spans_dropped_;
  s.samples_dropped = samples_dropped_;
  return s;
}

void Registry::reset_values() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& c : counters_) c->v_.store(0, std::memory_order_relaxed);
  for (auto& g : gauges_) g->v_.store(0.0, std::memory_order_relaxed);
  for (auto& h : histograms_) {
    for (std::size_t i = 0; i <= h->bounds_.size(); ++i) {
      h->buckets_[i].store(0, std::memory_order_relaxed);
    }
    h->count_.store(0, std::memory_order_relaxed);
    h->sum_.store(0.0, std::memory_order_relaxed);
  }
  spans_.clear();
  samples_.clear();
  spans_dropped_ = 0;
  samples_dropped_ = 0;
}

}  // namespace hlsprof::telemetry
