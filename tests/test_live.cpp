// Tests for the live observability layer (src/live): the timeline view
// reads the canonical TimedTraceBuilder between flush bursts and must
// compact to fit and bucket every cycle once, the batch view folds job
// events, and attaching any of it must leave canonical report and
// Paraver bytes untouched.
#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "common/argparse.hpp"
#include "common/error.hpp"
#include "core/hlsprof.hpp"
#include "live/reporter.hpp"
#include "live/timeline.hpp"
#include "paraver/writer.hpp"
#include "runner/runner.hpp"
#include "state_words.hpp"
#include "trace/timed_trace.hpp"
#include "workloads/reference.hpp"
#include "workloads/simple.hpp"

namespace hlsprof {
namespace {

trace::StateRecord states(const std::vector<std::uint8_t>& codes) {
  trace::StateRecord r;
  r.states = pack_states(codes);
  return r;
}

// ---- trace hook ------------------------------------------------------------

TEST(LiveHook, AttachingHookKeepsTraceBytesIdentical) {
  struct Seen {
    int calls = 0;
    long long states = 0;
    cycle_t last_clock = 0;
  };
  const auto run_once = [](Seen* seen) {
    hls::Design d = core::compile(workloads::vecadd(1024, 4));
    core::RunOptions opts;
    if (seen != nullptr) {
      opts.trace_progress = [seen](const trace::TimedTraceBuilder& b) {
        ++seen->calls;
        seen->states = b.states_seen();
        seen->last_clock = b.last_clock();
      };
    }
    core::Session s(std::move(d), opts);
    runner::HostBuffers bufs;
    s.sim().bind_f32("x", bufs.f32(workloads::random_vector(1024, 7)));
    s.sim().bind_f32("y", bufs.f32(workloads::random_vector(1024, 8)));
    s.sim().bind_f32("z", bufs.f32(1024));
    return s.run();
  };
  Seen seen;
  const core::RunResult off = run_once(nullptr);
  const core::RunResult on = run_once(&seen);
  const auto prv_off = paraver::to_paraver(off.timeline, "vecadd");
  const auto prv_on = paraver::to_paraver(on.timeline, "vecadd");
  EXPECT_EQ(prv_off.prv, prv_on.prv);
  EXPECT_EQ(prv_off.pcf, prv_on.pcf);
  EXPECT_EQ(prv_off.row, prv_on.row);
  // Once per flush burst plus once after the final drain, and the last
  // call saw every record.
  EXPECT_EQ(seen.calls, on.flush_bursts + 1);
  EXPECT_EQ(seen.states, on.state_records);
  EXPECT_LE(seen.last_clock, on.timeline.duration);
}

// ---- timeline view ---------------------------------------------------------

TEST(LiveTimeline, RendersStatesWithSharedLegend) {
  live::TimelineOptions topts;
  topts.width = 8;
  topts.initial_span = 16;
  live::LiveTimelineView view(2, topts);
  trace::TimedTraceBuilder b(2, 0);
  b.on_state(states({1, 3}), 0);  // running, spinning
  b.on_state(states({1, 3}), 64);
  b.on_state(states({0, 0}), 100);
  view.update(b);
  const std::string frame = view.render_frame();
  EXPECT_NE(frame.find("T0 "), std::string::npos);
  EXPECT_NE(frame.find("T1 "), std::string::npos);
  EXPECT_NE(frame.find('#'), std::string::npos);  // running lane
  EXPECT_NE(frame.find('S'), std::string::npos);  // spinning lane
  EXPECT_NE(frame.find("legend:"), std::string::npos);
}

TEST(LiveTimeline, CompactsSpanToFitWidth) {
  live::TimelineOptions topts;
  topts.width = 8;
  topts.initial_span = 4;  // fits 32 cycles before compaction
  live::LiveTimelineView view(1, topts);
  trace::TimedTraceBuilder b(1, 0);
  b.on_state(states({1}), 0);
  view.update(b);
  b.on_state(states({1}), 1000);  // forces repeated pair-merging
  view.update(b);
  EXPECT_GE(view.span() * cycle_t(topts.width), 1000u);
  EXPECT_EQ(view.span() % 4, 0u);  // doubled from the initial span
  // The run still renders one row of width <= 8 columns.
  const std::string frame = view.render_frame();
  EXPECT_NE(frame.find("T0 "), std::string::npos);
}

TEST(LiveTimeline, IncrementalUpdatesBucketEachCycleOnce) {
  // Drive two views from one random record stream: one updated after
  // every few records (an open interval is charged, then closed), one
  // updated once at the end. Both must draw the same frame.
  std::mt19937_64 rng(7);
  constexpr int kThreads = 3;
  live::TimelineOptions topts;
  topts.width = 16;
  topts.initial_span = 8;
  live::LiveTimelineView often(kThreads, topts);
  live::LiveTimelineView once(kThreads, topts);
  trace::TimedTraceBuilder b(kThreads, 0);
  cycle_t t = 5;
  for (int i = 0; i < 300; ++i) {
    std::vector<std::uint8_t> codes;
    for (int k = 0; k < kThreads; ++k) codes.push_back(std::uint8_t(rng() % 4));
    b.on_state(states(codes), t);
    t += rng() % 40;
    if (rng() % 3 == 0) often.update(b);
  }
  often.update(b);
  once.update(b);
  EXPECT_EQ(often.span(), once.span());
  EXPECT_EQ(often.render_frame(), once.render_frame());
}

// ---- job totals ------------------------------------------------------------

runner::JobEvent event(int index, std::uint64_t cycles,
                       std::array<std::uint64_t, 4> state_cycles,
                       std::uint64_t bytes) {
  runner::JobEvent e;
  e.index = index;
  e.name = "job" + std::to_string(index);
  e.cycles = cycles;
  e.threads = 4;
  e.state_cycles = state_cycles;
  e.bytes = bytes;
  e.done = 1;
  e.jobs = 2;
  return e;
}

TEST(LiveTotals, SharesWeightByThreadCycles) {
  live::JobTotals t;
  t.jobs = 2;
  t.add(event(0, 100, {0, 400, 0, 0}, 200));   // 4 threads, all running
  t.add(event(1, 300, {1200, 0, 0, 0}, 0));    // 4 threads, all idle
  EXPECT_EQ(t.done, 2u);
  EXPECT_EQ(t.cycles, 400u);
  EXPECT_DOUBLE_EQ(t.share(1), 0.25);  // 400 / 1600
  EXPECT_DOUBLE_EQ(t.share(0), 0.75);
  EXPECT_DOUBLE_EQ(t.bandwidth(), 0.5);  // 200 bytes / 400 cycles
  EXPECT_NE(live::format_totals(t).find("jobs 2/2"), std::string::npos);
}

// ---- batch reporter --------------------------------------------------------

runner::JobSpec live_vecadd_job(std::int64_t n) {
  runner::JobSpec spec;
  spec.name = "vecadd.n" + std::to_string(n);
  spec.kernel = [n](SplitMix64&) { return workloads::vecadd(n, 4); };
  spec.bind = [n](core::Session& s, runner::HostBuffers& bufs,
                  SplitMix64& rng) {
    s.sim().bind_f32("x", bufs.f32(workloads::random_vector(n, rng.next())));
    s.sim().bind_f32("y", bufs.f32(workloads::random_vector(n, rng.next())));
    s.sim().bind_f32("z", bufs.f32(std::size_t(n)));
  };
  return spec;
}

std::string canonical_report(const runner::BatchResult& r) {
  runner::ReportOptions opts;
  opts.canonical = true;
  opts.label = "live-test";
  return runner::report_json(r, opts);
}

TEST(LiveReporter, ObserverKeepsReportBytesIdenticalAndFoldsTotals) {
  runner::Batch batch;
  batch.add(live_vecadd_job(256));
  batch.add(live_vecadd_job(512));
  batch.add(live_vecadd_job(1024));

  runner::BatchOptions base;
  base.workers = 2;
  base.seed = 42;
  const runner::BatchResult plain = batch.run(base);

  std::FILE* display = std::tmpfile();
  ASSERT_NE(display, nullptr);
  live::ReporterOptions ropts;
  ropts.mode = live::LiveMode::state;
  ropts.display = display;
  live::BatchLiveReporter reporter(ropts);
  runner::BatchOptions observed = base;
  observed.on_trace = [&reporter](int index, const std::string& name,
                                  const trace::TimedTraceBuilder& b) {
    reporter.on_trace(index, name, b);
  };
  observed.on_job_event = [&reporter](const runner::JobEvent& e) {
    reporter.on_job_event(e);
  };
  const runner::BatchResult live_run = batch.run(observed);
  reporter.finish();

  EXPECT_EQ(canonical_report(plain), canonical_report(live_run));

  // The totals are the exact sums of the jobs' own numbers.
  const live::JobTotals totals = reporter.totals();
  EXPECT_EQ(totals.done, 3u);
  EXPECT_EQ(totals.jobs, 3u);
  std::uint64_t cycles = 0;
  std::uint64_t running = 0;
  for (const runner::JobResult& j : live_run.jobs) {
    cycles += j.total_cycles;
    running += j.state_cycles[1];
  }
  EXPECT_EQ(totals.cycles, cycles);
  EXPECT_EQ(totals.state_cycles[1], running);
  EXPECT_GT(running, 0u);

  // The timeline slot drew frames with the job's label on the display.
  std::rewind(display);
  std::string text(1 << 16, '\0');
  text.resize(std::fread(text.data(), 1, text.size(), display));
  std::fclose(display);
  EXPECT_NE(text.find("vecadd.n"), std::string::npos);
  EXPECT_NE(text.find("legend:"), std::string::npos);
}

// ---- argparse --------------------------------------------------------------

TEST(LiveArgParse, OptionalValueFlagForms) {
  std::string value = "state";
  bool present = false;
  ArgParser p;
  p.option_optional("live", &value, &present, "live mode");

  const char* bare[] = {"prog", "--live"};
  ASSERT_TRUE(p.parse(2, bare));
  EXPECT_TRUE(present);
  EXPECT_EQ(value, "state");  // bare form keeps the default

  present = false;
  const char* with_value[] = {"prog", "--live=metrics"};
  ASSERT_TRUE(p.parse(2, with_value));
  EXPECT_TRUE(present);
  EXPECT_EQ(value, "metrics");

  const char* empty[] = {"prog", "--live="};
  EXPECT_FALSE(p.parse(2, empty));
}

TEST(LiveArgParse, ModeNamesParse) {
  live::LiveMode m = live::LiveMode::off;
  EXPECT_TRUE(live::parse_live_mode("state", &m));
  EXPECT_EQ(m, live::LiveMode::state);
  EXPECT_TRUE(live::parse_live_mode("metrics", &m));
  EXPECT_EQ(m, live::LiveMode::metrics);
  EXPECT_FALSE(live::parse_live_mode("bogus", &m));
  EXPECT_EQ(m, live::LiveMode::metrics);  // untouched on failure
}

}  // namespace
}  // namespace hlsprof
