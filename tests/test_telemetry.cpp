// Tests for the host telemetry layer (src/telemetry): metric semantics,
// exactness under pool-worker concurrency, disabled-path inertness,
// span/track bookkeeping, exporter validity, and the determinism
// invariant (canonical batch reports are byte-identical with telemetry
// on or off).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <string>
#include <thread>
#include <vector>

#include "common/build_info.hpp"
#include "common/error.hpp"
#include "runner/manifest.hpp"
#include "runner/runner.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "workloads/reference.hpp"
#include "workloads/simple.hpp"
#include "json_reader.hpp"

namespace hlsprof {
namespace {

/// True when `text` is one well-formed JSON document.
bool json_ok(const std::string& text) {
  try {
    json_parse(text);
    return true;
  } catch (const Error&) {
    return false;
  }
}

runner::JobSpec vecadd_job(std::int64_t n) {
  runner::JobSpec spec;
  spec.name = "vecadd.n" + std::to_string(n);
  spec.kernel = [n](SplitMix64&) { return workloads::vecadd(n, 4); };
  spec.bind = [n](core::Session& s, runner::HostBuffers& bufs,
                  SplitMix64& rng) {
    auto& x = bufs.f32(workloads::random_vector(n, rng.next()));
    auto& y = bufs.f32(workloads::random_vector(n, rng.next()));
    auto& z = bufs.f32(std::size_t(n));
    s.sim().bind_f32("x", x);
    s.sim().bind_f32("y", y);
    s.sim().bind_f32("z", z);
  };
  return spec;
}

// ---- metric semantics ------------------------------------------------------

TEST(Telemetry, CounterGaugeBasics) {
  telemetry::Registry reg;
  reg.enable(true);

  telemetry::Counter& c = reg.counter("unit.count", "items");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42);
  EXPECT_EQ(c.name(), "unit.count");
  EXPECT_EQ(c.unit(), "items");

  // Find-or-create: the same name yields the same object.
  EXPECT_EQ(&reg.counter("unit.count"), &c);

  telemetry::Gauge& g = reg.gauge("unit.level");
  g.set(3.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  EXPECT_EQ(&reg.gauge("unit.level"), &g);
}

TEST(Telemetry, HistogramBucketPlacement) {
  telemetry::Registry reg;
  reg.enable(true);

  telemetry::Histogram& h =
      reg.histogram("unit.hist", {1.0, 2.0, 4.0}, "ms");
  // Edges are inclusive upper bounds; 5.0 overflows.
  for (double v : {0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0}) h.observe(v);

  const std::vector<long long> buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 2);  // 0.5, 1.0
  EXPECT_EQ(buckets[1], 2);  // 1.5, 2.0
  EXPECT_EQ(buckets[2], 2);  // 3.0, 4.0
  EXPECT_EQ(buckets[3], 1);  // 5.0 overflow
  EXPECT_EQ(h.count(), 7);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 2.0 + 3.0 + 4.0 + 5.0);
}

TEST(Telemetry, ExpBoundsShape) {
  const std::vector<double> b = telemetry::exp_bounds(0.5, 2.0, 4);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_DOUBLE_EQ(b[0], 0.5);
  EXPECT_DOUBLE_EQ(b[1], 1.0);
  EXPECT_DOUBLE_EQ(b[2], 2.0);
  EXPECT_DOUBLE_EQ(b[3], 4.0);
}

// ---- disabled path ---------------------------------------------------------

TEST(Telemetry, DisabledRegistryAddsNoObservableState) {
  telemetry::Registry reg;  // disabled by default
  ASSERT_FALSE(reg.enabled());

  telemetry::Counter& c = reg.counter("dark.count");
  telemetry::Gauge& g = reg.gauge("dark.level");
  telemetry::Histogram& h = reg.histogram("dark.hist", {1.0, 10.0});
  c.add(100);
  g.set(7.0);
  g.add(2.0);
  h.observe(5.0);
  { telemetry::Span span(reg, "dark.span", "test"); }
  reg.record_span("dark.manual", "", 1, 2);
  reg.record_sample(0, 1, 1.0);

  EXPECT_EQ(c.value(), 0);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0);

  const telemetry::Snapshot s = reg.snapshot();
  EXPECT_FALSE(s.enabled);
  EXPECT_TRUE(s.spans.empty());
  EXPECT_TRUE(s.samples.empty());
  EXPECT_EQ(s.spans_dropped, 0);
  for (const auto& cv : s.counters) EXPECT_EQ(cv.value, 0);
  for (const auto& hv : s.histograms) EXPECT_EQ(hv.count, 0);
}

TEST(Telemetry, EnableFlipTakesEffect) {
  telemetry::Registry reg;
  telemetry::Counter& c = reg.counter("flip.count");
  c.add(5);
  EXPECT_EQ(c.value(), 0);
  reg.enable(true);
  c.add(5);
  EXPECT_EQ(c.value(), 5);
  reg.enable(false);
  c.add(5);
  EXPECT_EQ(c.value(), 5);
}

// ---- spans and tracks ------------------------------------------------------

TEST(Telemetry, SpanRecordsOnBoundTrack) {
  telemetry::Registry reg;
  reg.enable(true);

  const int track = reg.register_track("unit-track");
  reg.bind_thread_track(track);
  {
    telemetry::Span span(reg, "phase.a", "test");
  }
  reg.record_span_on(0, "phase.b", "test", 10, 20);

  const telemetry::Snapshot s = reg.snapshot();
  ASSERT_EQ(s.spans.size(), 2u);
  EXPECT_EQ(s.spans[0].name, "phase.a");
  EXPECT_EQ(s.spans[0].track, track);
  EXPECT_LE(s.spans[0].begin_us, s.spans[0].end_us);
  EXPECT_EQ(s.spans[1].name, "phase.b");
  EXPECT_EQ(s.spans[1].track, 0);
  EXPECT_EQ(s.spans[1].begin_us, 10u);
  EXPECT_EQ(s.spans[1].end_us, 20u);
  ASSERT_GE(s.tracks.size(), 2u);
  EXPECT_EQ(s.tracks[0], "main");
  EXPECT_EQ(s.tracks[std::size_t(track)], "unit-track");
}

TEST(Telemetry, UnboundThreadAutoRegistersTrack) {
  telemetry::Registry reg;
  reg.enable(true);
  int seen = -1;
  std::thread t([&] { seen = reg.thread_track(); });
  t.join();
  EXPECT_GT(seen, 0);
  const telemetry::Snapshot s = reg.snapshot();
  ASSERT_GT(s.tracks.size(), std::size_t(seen));
  EXPECT_EQ(s.tracks[std::size_t(seen)].rfind("thread-", 0), 0u);
}

TEST(Telemetry, ResetValuesKeepsRegistrations) {
  telemetry::Registry reg;
  reg.enable(true);
  telemetry::Counter& c = reg.counter("keep.count");
  c.add(9);
  reg.record_span("s", "", 0, 1);
  reg.reset_values();
  EXPECT_EQ(c.value(), 0);
  EXPECT_TRUE(reg.snapshot().spans.empty());
  EXPECT_TRUE(reg.enabled());
  EXPECT_EQ(&reg.counter("keep.count"), &c);  // registration survives
}

// ---- concurrency: exact totals from pool workers ---------------------------

TEST(TelemetryConcurrency, ExactCounterTotalsFromPoolWorkers) {
  telemetry::Registry reg;
  reg.enable(true);
  telemetry::Counter& hits = reg.counter("hammer.hits");
  telemetry::Gauge& level = reg.gauge("hammer.level");
  telemetry::Histogram& lat =
      reg.histogram("hammer.lat", telemetry::exp_bounds(1.0, 2.0, 8));

  constexpr int kTasks = 64;
  constexpr int kAddsPerTask = 1000;
  {
    runner::Pool pool(4);
    for (int t = 0; t < kTasks; ++t) {
      pool.submit([&, t] {
        for (int i = 0; i < kAddsPerTask; ++i) {
          hits.add(1);
          lat.observe(double(1 + (i + t) % 200));
        }
        level.add(1.0);
      });
    }
    pool.wait();
  }

  EXPECT_EQ(hits.value(), kTasks * kAddsPerTask);
  EXPECT_EQ(lat.count(), kTasks * kAddsPerTask);
  EXPECT_DOUBLE_EQ(level.value(), double(kTasks));
  long long bucket_total = 0;
  for (long long b : lat.bucket_counts()) bucket_total += b;
  EXPECT_EQ(bucket_total, lat.count());
}

TEST(TelemetryConcurrency, GlobalPoolMetricsCountEveryTask) {
  auto& reg = telemetry::Registry::global();
  reg.reset_values();
  reg.enable(true);

  const long long tasks_before = reg.counter("runner.tasks").value();
  constexpr int kTasks = 32;
  {
    runner::Pool pool(3);
    for (int t = 0; t < kTasks; ++t) {
      pool.submit([] { /* no-op job */ });
    }
    pool.wait();
  }
  EXPECT_EQ(reg.counter("runner.tasks").value() - tasks_before, kTasks);
  // Every executed task left the in-flight gauge balanced.
  EXPECT_DOUBLE_EQ(reg.gauge("runner.jobs_in_flight").value(), 0.0);
  // Queue-wait observations cannot exceed submissions.
  telemetry::Histogram& qw = reg.histogram(
      "runner.queue_wait_us", telemetry::exp_bounds(10.0, 4.0, 10), "us");
  EXPECT_LE(qw.count(), kTasks);
  reg.enable(false);
  reg.reset_values();
}

// ---- exporters -------------------------------------------------------------

TEST(TelemetryExport, SnapshotJsonIsValidAndCarriesBuildInfo) {
  telemetry::Registry reg;
  reg.enable(true);
  reg.counter("exp.count", "items").add(3);
  reg.gauge("exp.level").set(1.5);
  reg.histogram("exp.hist", {1.0, 2.0}).observe(1.5);
  { telemetry::Span span(reg, "exp.span", "test"); }

  const std::string json = telemetry::snapshot_json(reg.snapshot());
  EXPECT_TRUE(json_ok(json)) << json;
  EXPECT_NE(json.find("\"hlsprof-telemetry\""), std::string::npos);
  EXPECT_NE(json.find("\"exp.count\""), std::string::npos);
  EXPECT_NE(json.find(build_info().version), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);
}

TEST(TelemetryExport, ChromeTraceJsonIsValidAndNamesTracks) {
  telemetry::Registry reg;
  reg.enable(true);
  const int track = reg.register_track("worker-x");
  reg.record_span_on(track, "phase.q", "test", 100, 250);
  reg.gauge("exp.level").set(2.0);

  const std::string json = telemetry::chrome_trace_json(reg.snapshot());
  EXPECT_TRUE(json_ok(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"worker-x\""), std::string::npos);
  EXPECT_NE(json.find("\"phase.q\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
}

TEST(TelemetryExport, SummaryTextMentionsSubsystems) {
  telemetry::Registry reg;
  reg.enable(true);
  const std::string text = telemetry::summary_text(reg.snapshot());
  EXPECT_NE(text.find("compile"), std::string::npos);
  EXPECT_NE(text.find("cache"), std::string::npos);
  EXPECT_NE(text.find("pool"), std::string::npos);
}

TEST(TelemetryExport, BuildInfoStampIsPopulated) {
  const BuildInfo& bi = build_info();
  EXPECT_NE(std::string(bi.version), "");
  EXPECT_NE(std::string(bi.cxx_standard), "");
  EXPECT_NE(build_info_string().find("hlsprof"), std::string::npos);
  EXPECT_NE(build_info_string().find(bi.version), std::string::npos);
}

// ---- determinism + end-to-end counters -------------------------------------

TEST(TelemetryDeterminism, CanonicalReportIdenticalWithTelemetryOnOrOff) {
  runner::Batch batch;
  batch.add(vecadd_job(64));
  batch.add(vecadd_job(64));  // same content: second is a cache hit
  batch.add(vecadd_job(96));
  runner::BatchOptions opts;
  opts.workers = 2;
  opts.seed = 7;
  runner::ReportOptions canon;
  canon.canonical = true;

  auto& reg = telemetry::Registry::global();
  reg.enable(false);
  const runner::BatchResult off = batch.run(opts);
  const std::string off_json = runner::report_json(off, canon);
  const std::string off_csv = runner::report_csv(off, canon);

  reg.reset_values();
  reg.enable(true);
  const runner::BatchResult on = batch.run(opts);
  const std::string on_json = runner::report_json(on, canon);
  const std::string on_csv = runner::report_csv(on, canon);
  reg.enable(false);
  reg.reset_values();

  EXPECT_EQ(off_json, on_json);  // byte-identical canonical bytes
  EXPECT_EQ(off_csv, on_csv);
}

TEST(TelemetryDeterminism, CacheCountersMatchCacheStats) {
  auto& reg = telemetry::Registry::global();
  reg.reset_values();
  reg.enable(true);

  runner::Batch batch;
  batch.add(vecadd_job(64));
  batch.add(vecadd_job(64));
  batch.add(vecadd_job(64));
  batch.add(vecadd_job(96));
  runner::BatchOptions opts;
  opts.workers = 2;
  runner::DesignCache cache;
  opts.cache = &cache;

  const long long hits0 = reg.counter("cache.hits").value();
  const long long miss0 = reg.counter("cache.misses").value();
  const runner::BatchResult r = batch.run(opts);
  ASSERT_TRUE(r.all_ok());

  EXPECT_EQ(reg.counter("cache.hits").value() - hits0, r.cache_hits);
  EXPECT_EQ(reg.counter("cache.misses").value() - miss0, r.cache_misses);
  EXPECT_EQ(r.cache_misses, 2);  // two distinct designs
  EXPECT_EQ(r.cache_hits, 2);

  // Jobs were observed too.
  EXPECT_EQ(reg.counter("runner.jobs").value(), 4);
  EXPECT_EQ(reg.counter("sim.runs").value(), 4);
  EXPECT_GE(reg.counter("hls.compiles").value(), 2);

  // And the whole thing exports as valid JSON.
  EXPECT_TRUE(json_ok(telemetry::snapshot_json(reg.snapshot())));
  EXPECT_TRUE(json_ok(telemetry::chrome_trace_json(reg.snapshot())));
  reg.enable(false);
  reg.reset_values();
}

// ---- attribution: a job's spans account for its time ------------------------

/// Fraction of `job` covered by the union of the other spans on its track
/// that lie inside it.
double covered_fraction(const telemetry::SpanView& job,
                        const std::vector<telemetry::SpanView>& spans) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> inside;
  for (const auto& s : spans) {
    if (&s != &job && s.track == job.track && s.begin_us >= job.begin_us &&
        s.end_us <= job.end_us) {
      inside.emplace_back(s.begin_us, s.end_us);
    }
  }
  std::sort(inside.begin(), inside.end());
  std::uint64_t covered = 0;
  std::uint64_t reach = job.begin_us;
  for (const auto& [b, e] : inside) {
    const std::uint64_t from = std::max(b, reach);
    if (e > from) covered += e - from;
    reach = std::max(reach, e);
  }
  const std::uint64_t dur = job.end_us - job.begin_us;
  return dur == 0 ? 1.0 : double(covered) / double(dur);
}

TEST(TelemetryAttribution, JobSpansAreCovered) {
  runner::ManifestRun m = runner::parse_manifest(
      "workload = pi\nsteps = 16384\nthreads = 8\nverify = on\n"
      "sampling_period = 1024, 2048, 4096, 8192, 16384, 32768, 65536, "
      "131072\n");
  m.options.workers = 1;
  ASSERT_GE(m.batch.size(), 8u);

  auto& reg = telemetry::Registry::global();
  reg.reset_values();
  reg.enable(true);
  const runner::BatchResult r = m.batch.run(m.options);
  const telemetry::Snapshot snap = reg.snapshot();
  reg.enable(false);
  reg.reset_values();

  for (const auto& j : r.jobs) {
    ASSERT_EQ(j.status, runner::JobStatus::ok) << j.name << ": " << j.error;
  }
  std::vector<double> covered;
  for (const auto& s : snap.spans) {
    if (s.name.rfind("job:", 0) == 0) {
      covered.push_back(covered_fraction(s, snap.spans));
    }
  }
  ASSERT_EQ(covered.size(), r.jobs.size());
  // The median, so one preempted job cannot fail the run.
  std::sort(covered.begin(), covered.end());
  const double median = covered[covered.size() / 2];
  EXPECT_GE(median, 0.95) << "child spans cover only " << median * 100
                          << " % of the median job";
}

}  // namespace
}  // namespace hlsprof
