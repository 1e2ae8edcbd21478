#include "telemetry/export.hpp"

#include <fstream>

#include "common/build_info.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"

namespace hlsprof::telemetry {

namespace {

void build_object(JsonWriter& w) {
  const BuildInfo& b = build_info();
  w.key("build").begin_object();
  w.field("version", b.version);
  w.field("build_type", b.build_type);
  w.field("compiler", b.compiler);
  w.field("cxx_standard", b.cxx_standard);
  w.end_object();
}

/// Find a metric by name in a sorted view vector; null if absent.
template <typename View>
const View* find_view(const std::vector<View>& views, std::string_view name) {
  for (const View& v : views) {
    if (v.name == name) return &v;
  }
  return nullptr;
}

}  // namespace

std::string snapshot_json(const Snapshot& s) {
  JsonWriter w;
  w.begin_object();
  w.field("schema", "hlsprof-telemetry");
  w.field("schema_version", 1);
  build_object(w);
  w.field("enabled", s.enabled);

  w.key("counters").begin_object();
  for (const CounterView& c : s.counters) {
    w.key(c.name).begin_object();
    w.field("value", c.value);
    if (!c.unit.empty()) w.field("unit", c.unit);
    w.end_object();
  }
  w.end_object();

  w.key("gauges").begin_object();
  for (const GaugeView& g : s.gauges) {
    w.key(g.name).begin_object();
    w.field("value", g.value);
    if (!g.unit.empty()) w.field("unit", g.unit);
    w.end_object();
  }
  w.end_object();

  w.key("histograms").begin_object();
  for (const HistogramView& h : s.histograms) {
    w.key(h.name).begin_object();
    w.field("count", h.count);
    w.field("sum", h.sum);
    if (!h.unit.empty()) w.field("unit", h.unit);
    w.key("buckets").begin_array();
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      w.begin_object();
      if (i < h.bounds.size()) {
        w.field("le", h.bounds[i]);
      } else {
        w.field("le", "inf");
      }
      w.field("count", h.buckets[i]);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();

  w.key("spans").begin_object();
  w.field("recorded", std::int64_t(s.spans.size()));
  w.field("dropped", s.spans_dropped);
  w.end_object();
  w.key("samples").begin_object();
  w.field("recorded", std::int64_t(s.samples.size()));
  w.field("dropped", s.samples_dropped);
  w.end_object();

  w.key("tracks").begin_array();
  for (const std::string& t : s.tracks) w.value(t);
  w.end_array();
  w.end_object();
  return w.str();
}

std::string chrome_trace_json(const Snapshot& s) {
  JsonWriter w;
  w.begin_object();
  w.key("traceEvents").begin_array();
  // Track labels: Chrome's thread_name metadata event per registered track.
  for (std::size_t t = 0; t < s.tracks.size(); ++t) {
    w.begin_object();
    w.field("name", "thread_name");
    w.field("ph", "M");
    w.field("pid", 1);
    w.field("tid", std::int64_t(t));
    w.key("args").begin_object();
    w.field("name", s.tracks[t]);
    w.end_object();
    w.end_object();
  }
  // Spans: complete ("X") events, ts/dur in µs.
  for (const SpanView& sp : s.spans) {
    w.begin_object();
    w.field("name", sp.name);
    if (!sp.cat.empty()) w.field("cat", sp.cat);
    w.field("ph", "X");
    w.field("ts", double(sp.begin_us));
    w.field("dur", double(sp.end_us - sp.begin_us));
    w.field("pid", 1);
    w.field("tid", std::int64_t(sp.track));
    w.end_object();
  }
  // Gauge samples: counter ("C") events on the process track.
  for (const SampleView& sm : s.samples) {
    const std::size_t gi = std::size_t(sm.gauge_index);
    if (gi >= s.gauge_names.size()) continue;
    w.begin_object();
    w.field("name", s.gauge_names[gi]);
    w.field("ph", "C");
    w.field("ts", double(sm.ts_us));
    w.field("pid", 1);
    w.key("args").begin_object();
    w.field("value", sm.value);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.field("displayTimeUnit", "ms");
  w.key("otherData").begin_object();
  w.field("version", build_info().version);
  w.end_object();
  w.end_object();
  return w.str();
}

std::string summary_text(const Snapshot& s) {
  const auto cval = [&](const char* name) -> long long {
    const CounterView* c = find_view(s.counters, name);
    return c != nullptr ? c->value : 0;
  };
  const auto gval = [&](const char* name) -> double {
    const GaugeView* g = find_view(s.gauges, name);
    return g != nullptr ? g->value : 0.0;
  };
  std::string out;
  out += strf("telemetry: compile %lld runs (%.1f ms total)\n",
              cval("hls.compiles"), double(cval("hls.compile_us")) / 1e3);
  out += strf("telemetry: sim %lld runs, %s cycles, %.0f cycles/s\n",
              cval("sim.runs"),
              with_commas((unsigned long long)cval("sim.cycles")).c_str(),
              gval("sim.cycles_per_sec"));
  out += strf("telemetry: trace %lld bursts, %s bytes in, %lld records out\n",
              cval("trace.flush_bursts"),
              with_commas((unsigned long long)cval("trace.bytes_in")).c_str(),
              cval("trace.records_out"));
  out += strf(
      "telemetry: cache %lld hits / %lld misses, %lld single-flight waits, "
      "%.1f ms compile saved\n",
      cval("cache.hits"), cval("cache.misses"), cval("cache.singleflight_waits"),
      double(cval("cache.compile_us_saved")) / 1e3);
  out += strf(
      "telemetry: pool %lld tasks, busy %.1f ms, %lld spans (%lld dropped)\n",
      cval("runner.tasks"), double(cval("runner.busy_us")) / 1e3,
      (long long)s.spans.size(), s.spans_dropped);
  return out;
}

void write_text_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::trunc);
  if (!f.good()) fail("cannot write " + path);
  f << text;
  if (!f.good()) fail("error writing " + path);
}

}  // namespace hlsprof::telemetry
