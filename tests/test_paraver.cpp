// Tests for the Paraver writer/reader, analysis library, and the ASCII
// state-view renderer.
#include <gtest/gtest.h>

#include <fstream>

#include "common/error.hpp"
#include "paraver/analysis.hpp"
#include "paraver/ascii.hpp"
#include "paraver/reader.hpp"
#include "paraver/writer.hpp"

namespace hlsprof::paraver {
namespace {

using sim::ThreadState;
using trace::EventKind;
using trace::EventSample;
using trace::StateInterval;
using trace::TimedTrace;

TimedTrace sample_trace() {
  TimedTrace t;
  t.num_threads = 2;
  t.duration = 100;
  t.sampling_period = 10;
  t.thread_states.resize(2);
  t.thread_states[0] = {{ThreadState::idle, 0, 10},
                        {ThreadState::running, 10, 80},
                        {ThreadState::critical, 80, 90},
                        {ThreadState::idle, 90, 100}};
  t.thread_states[1] = {{ThreadState::idle, 0, 20},
                        {ThreadState::running, 20, 70},
                        {ThreadState::spinning, 70, 95},
                        {ThreadState::idle, 95, 100}};
  t.events = {{EventKind::bytes_read, 0, 10, 640},
              {EventKind::bytes_read, 1, 20, 320},
              {EventKind::fp_ops, 0, 30, 100},
              {EventKind::bytes_written, 0, 40, 64},
              {EventKind::stall_cycles, 1, 50, 7},
              {EventKind::int_ops, 0, 60, 5}};
  return t;
}

// ---- state / event-type mappings -------------------------------------------

TEST(ParaverIds, StateIdsMatchPcfTable) {
  EXPECT_EQ(state_id(ThreadState::idle), 0);
  EXPECT_EQ(state_id(ThreadState::running), 1);
  EXPECT_EQ(state_id(ThreadState::critical), 2);
  EXPECT_EQ(state_id(ThreadState::spinning), 3);
}

TEST(ParaverIds, EventTypeIds) {
  EXPECT_EQ(event_type_id(EventKind::stall_cycles), 42000001);
  EXPECT_EQ(event_type_id(EventKind::bytes_written), 42000005);
}

// ---- writer ------------------------------------------------------------------

TEST(Writer, PrvHeaderStructure) {
  const auto files = to_paraver(sample_trace(), "app");
  ASSERT_FALSE(files.prv.empty());
  EXPECT_EQ(files.prv.rfind("#Paraver", 0), 0u);
  EXPECT_NE(files.prv.find(":100:1(2):1:1(2:1)"), std::string::npos);
}

TEST(Writer, StateRecordsEmitted) {
  const auto files = to_paraver(sample_trace(), "app");
  // thread 0 critical interval: 1:cpu:appl:task:thread:begin:end:state
  EXPECT_NE(files.prv.find("1:1:1:1:1:80:90:2"), std::string::npos);
  // thread 1 spinning interval
  EXPECT_NE(files.prv.find("1:2:1:1:2:70:95:3"), std::string::npos);
}

TEST(Writer, EventRecordsEmitted) {
  const auto files = to_paraver(sample_trace(), "app");
  EXPECT_NE(files.prv.find("2:1:1:1:1:10:42000004:640"), std::string::npos);
  EXPECT_NE(files.prv.find("2:2:1:1:2:50:42000001:7"), std::string::npos);
}

TEST(Writer, PcfHasStatesAndPaperColors) {
  const auto files = to_paraver(sample_trace(), "app");
  EXPECT_NE(files.pcf.find("STATES"), std::string::npos);
  EXPECT_NE(files.pcf.find("1    Running"), std::string::npos);
  EXPECT_NE(files.pcf.find("3    Spinning"), std::string::npos);
  // Paper's legend: running green, spinning red, critical blue, idle black.
  EXPECT_NE(files.pcf.find("1    {0,255,0}"), std::string::npos);
  EXPECT_NE(files.pcf.find("3    {255,0,0}"), std::string::npos);
  EXPECT_NE(files.pcf.find("2    {0,0,255}"), std::string::npos);
  EXPECT_NE(files.pcf.find("0    {0,0,0}"), std::string::npos);
}

TEST(Writer, PcfHasAllEventTypes) {
  const auto files = to_paraver(sample_trace(), "app");
  for (int id = 42000001; id <= 42000005; ++id) {
    EXPECT_NE(files.pcf.find(std::to_string(id)), std::string::npos) << id;
  }
}

TEST(Writer, RowNamesThreads) {
  const auto files = to_paraver(sample_trace(), "app");
  EXPECT_NE(files.row.find("LEVEL THREAD SIZE 2"), std::string::npos);
  EXPECT_NE(files.row.find("HW thread 1.1.2"), std::string::npos);
}

TEST(Writer, FilesWrittenToDisk) {
  const std::string base = ::testing::TempDir() + "/hlsprof_paraver_test";
  write_paraver(sample_trace(), "app", base);
  for (const char* ext : {".prv", ".pcf", ".row"}) {
    const auto parsed_ok = [&] {
      std::ifstream f(base + ext);
      return f.good();
    }();
    EXPECT_TRUE(parsed_ok) << ext;
  }
  const auto parsed = read_prv_file(base + ".prv");
  EXPECT_EQ(parsed.trace.num_threads, 2);
}

// ---- reader / round-trip ------------------------------------------------------

TEST(Reader, RoundTripPreservesStatesAndEvents) {
  const TimedTrace original = sample_trace();
  const auto files = to_paraver(original, "app");
  const auto parsed = parse_prv(files.prv);
  const TimedTrace& t = parsed.trace;
  EXPECT_EQ(t.num_threads, 2);
  EXPECT_EQ(t.duration, 100u);
  ASSERT_EQ(t.thread_states.size(), 2u);
  ASSERT_EQ(t.thread_states[0].size(), original.thread_states[0].size());
  for (std::size_t i = 0; i < original.thread_states[0].size(); ++i) {
    EXPECT_EQ(t.thread_states[0][i].state,
              original.thread_states[0][i].state);
    EXPECT_EQ(t.thread_states[0][i].begin,
              original.thread_states[0][i].begin);
    EXPECT_EQ(t.thread_states[0][i].end, original.thread_states[0][i].end);
  }
  ASSERT_EQ(t.events.size(), original.events.size());
  for (std::size_t i = 0; i < original.events.size(); ++i) {
    EXPECT_EQ(t.events[i].kind, original.events[i].kind);
    EXPECT_EQ(t.events[i].thread, original.events[i].thread);
    EXPECT_EQ(t.events[i].t, original.events[i].t);
    EXPECT_EQ(t.events[i].value, original.events[i].value);
  }
}

TEST(Reader, AcceptsCommunicationRecords) {
  std::string prv = "#Paraver (07/07/2026 at 12:00):100:1(2):1:1(2:1)\n";
  prv += "3:1:1:1:1:10:11:2:1:1:2:12:13:64:7\n";
  const auto parsed = parse_prv(prv);
  EXPECT_EQ(parsed.comm_records, 1);
}

TEST(Reader, RejectsMissingHeader) {
  EXPECT_THROW(parse_prv("1:1:1:1:1:0:10:1\n"), Error);
}

TEST(Reader, RejectsUnknownRecordType) {
  std::string prv = "#Paraver (07/07/2026 at 12:00):100:1(1):1:1(1:1)\n";
  prv += "9:1:1:1:1:0:10:1\n";
  EXPECT_THROW(parse_prv(prv), Error);
}

TEST(Reader, RejectsBadStateId) {
  std::string prv = "#Paraver (07/07/2026 at 12:00):100:1(1):1:1(1:1)\n";
  prv += "1:1:1:1:1:0:10:7\n";
  EXPECT_THROW(parse_prv(prv), Error);
}

TEST(Reader, RejectsThreadOutOfRange) {
  std::string prv = "#Paraver (07/07/2026 at 12:00):100:1(1):1:1(1:1)\n";
  prv += "1:2:1:1:2:0:10:1\n";
  EXPECT_THROW(parse_prv(prv), Error);
}

TEST(Reader, TextFieldErrorNamesLineAndField) {
  std::string prv = "#Paraver (07/07/2026 at 12:00):100:1(1):1:1(1:1)\n";
  prv += "1:1:1:1:1:zz:10:1\n";
  try {
    parse_prv(prv);
    FAIL() << "text field must not parse";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("prv:2:"), std::string::npos) << msg;
    EXPECT_NE(msg.find("field 6"), std::string::npos) << msg;
    EXPECT_NE(msg.find("\"zz\""), std::string::npos) << msg;
  }
}

TEST(Reader, OutOfRangeFieldErrorNamesLineAndField) {
  std::string prv = "#Paraver (07/07/2026 at 12:00):100:1(1):1:1(1:1)\n";
  prv += "1:1:1:1:1:0:99999999999999999999999:1\n";
  try {
    parse_prv(prv);
    FAIL() << "25-digit value must not parse";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("prv:2:"), std::string::npos) << msg;
    EXPECT_NE(msg.find("out of 64-bit range"), std::string::npos) << msg;
  }
}

TEST(Reader, SignedAndEmptyFieldsAreRejected) {
  const std::string header =
      "#Paraver (07/07/2026 at 12:00):100:1(1):1:1(1:1)\n";
  EXPECT_THROW(parse_prv(header + "1:1:1:1:1:-5:10:1\n"), Error)
      << "negative field";
  EXPECT_THROW(parse_prv(header + "1:1:1:1:1::10:1\n"), Error)
      << "empty field from a doubled separator";
}

TEST(Reader, BadHeaderEndTimeNamesTheHeaderField) {
  try {
    parse_prv("#Paraver (07/07/2026 at 12:00):abc:1(1):1:1(1:1)\n");
    FAIL() << "text endTime must not parse";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("prv:1:"), std::string::npos) << msg;
    EXPECT_NE(msg.find("header endTime"), std::string::npos) << msg;
  }
}

TEST(Reader, MultiValueEventRecord) {
  std::string prv = "#Paraver (07/07/2026 at 12:00):100:1(1):1:1(1:1)\n";
  prv += "2:1:1:1:1:10:42000002:5:42000003:9\n";
  const auto parsed = parse_prv(prv);
  ASSERT_EQ(parsed.trace.events.size(), 2u);
  EXPECT_EQ(parsed.trace.events[0].kind, EventKind::int_ops);
  EXPECT_EQ(parsed.trace.events[1].kind, EventKind::fp_ops);
  EXPECT_EQ(parsed.trace.events[1].value, 9u);
}

// ---- analysis -------------------------------------------------------------------

TEST(Analysis, RateSeriesSumsThreadsPerWindow) {
  const auto series = rate_series(sample_trace(), EventKind::bytes_read);
  ASSERT_EQ(series.size(), 10u);
  EXPECT_DOUBLE_EQ(series[1], 64.0);  // 640 bytes / 10-cycle window
  EXPECT_DOUBLE_EQ(series[2], 32.0);
  EXPECT_DOUBLE_EQ(series[5], 0.0);
}

TEST(Analysis, RateSeriesThreadFilters) {
  const auto s0 =
      rate_series_thread(sample_trace(), EventKind::bytes_read, 0);
  const auto s1 =
      rate_series_thread(sample_trace(), EventKind::bytes_read, 1);
  EXPECT_DOUBLE_EQ(s0[1], 64.0);
  EXPECT_DOUBLE_EQ(s0[2], 0.0);
  EXPECT_DOUBLE_EQ(s1[2], 32.0);
}

TEST(Analysis, RateSeriesRequiresSamplingPeriod) {
  TimedTrace t;
  t.num_threads = 1;
  t.duration = 10;
  t.sampling_period = 0;
  t.thread_states.resize(1);
  EXPECT_THROW(rate_series(t, EventKind::fp_ops), Error);
}

TEST(Analysis, UnitConversions) {
  // 64 B/cycle at 200 MHz = 12.8 GB/s.
  EXPECT_NEAR(bytes_per_cycle_to_gbs(64, 200), 12.8, 1e-9);
  // 1e9 FLOPs in 1e8 cycles at 100 MHz -> 1 second -> 1 GFLOP/s.
  EXPECT_NEAR(gflops(1000000000LL, 100000000, 100), 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(gflops(100, 0, 100), 0.0);
}

TEST(Analysis, SummarizeStates) {
  const auto s = summarize_states(sample_trace());
  EXPECT_NEAR(s.running + s.idle + s.critical + s.spinning, 1.0, 1e-9);
  EXPECT_NEAR(s.critical, 0.05, 1e-9);   // 10 of 200 thread-cycles
  EXPECT_NEAR(s.spinning, 0.125, 1e-9);  // 25 of 200
  // The one-pass sums give each state's fraction bit for bit.
  const TimedTrace t = sample_trace();
  EXPECT_EQ(s.idle, t.state_fraction(sim::ThreadState::idle));
  EXPECT_EQ(s.running, t.state_fraction(sim::ThreadState::running));
  EXPECT_EQ(s.critical, t.state_fraction(sim::ThreadState::critical));
  EXPECT_EQ(s.spinning, t.state_fraction(sim::ThreadState::spinning));
  const std::array<cycle_t, 4> cycles = t.state_cycles();
  for (int st = 0; st < 4; ++st) {
    EXPECT_EQ(cycles[std::size_t(st)],
              t.state_cycles(sim::ThreadState(st)));
  }
}

TEST(Analysis, MeanAndPeakBandwidth) {
  const TimedTrace t = sample_trace();
  EXPECT_NEAR(mean_bandwidth(t), (640.0 + 320.0 + 64.0) / 100.0, 1e-9);
  EXPECT_NEAR(peak_bandwidth(t), 64.0, 1e-9);
}

TEST(Analysis, WeightedOverlap) {
  TimedTrace t;
  t.num_threads = 1;
  t.duration = 40;
  t.sampling_period = 10;
  t.thread_states.resize(1);
  // fp in window 0 (with mem) and window 2 (without).
  t.events = {{EventKind::bytes_read, 0, 0, 100},
              {EventKind::fp_ops, 0, 0, 30},
              {EventKind::fp_ops, 0, 20, 10}};
  EXPECT_NEAR(weighted_compute_mem_overlap(t, 0), 0.75, 1e-9);
}

TEST(Analysis, PhaseProfileClassification) {
  TimedTrace t;
  t.num_threads = 1;
  t.duration = 50;
  t.sampling_period = 10;
  t.thread_states.resize(1);
  t.events = {{EventKind::bytes_read, 0, 0, 100},   // mem-only
              {EventKind::fp_ops, 0, 10, 50},       // compute-only
              {EventKind::bytes_read, 0, 20, 100},  // overlap
              {EventKind::fp_ops, 0, 20, 50}};
  // window 3, 4: quiet
  const auto p = phase_profile(t, 0.5, 0.05);
  EXPECT_EQ(p.windows, 5);
  EXPECT_EQ(p.mem_only, 1);
  EXPECT_EQ(p.compute_only, 1);
  EXPECT_EQ(p.overlap, 1);
  EXPECT_EQ(p.quiet, 2);
  EXPECT_EQ(p.phase_changes, 1);
  EXPECT_DOUBLE_EQ(p.overlap_fraction(), 0.5);
}

TEST(Analysis, SparklineShape) {
  const std::vector<double> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  const std::string s = sparkline(v, 5);
  EXPECT_EQ(s.rfind("[", 0), 0u);
  EXPECT_NE(s.find("peak=9.000"), std::string::npos);
  // Monotonic input -> last bucket is the peak digit.
  EXPECT_EQ(s[5], '9');
}

TEST(Analysis, SparklineEmptySeries) {
  const std::string s = sparkline({}, 4);
  EXPECT_NE(s.find("0000"), std::string::npos);
}

TEST(Analysis, SparklineRejectsZeroBuckets) {
  EXPECT_THROW(sparkline({1.0}, 0), Error);
}

// ---- ASCII renderer -----------------------------------------------------------

TEST(Ascii, RendersMajorityStates) {
  const std::string view = render_state_view(sample_trace(),
                                             AsciiOptions{.width = 20});
  // Thread rows present.
  EXPECT_NE(view.find("T0 "), std::string::npos);
  EXPECT_NE(view.find("T1 "), std::string::npos);
  // Running dominates the middle; idle at the start.
  EXPECT_NE(view.find('#'), std::string::npos);
  EXPECT_NE(view.find('.'), std::string::npos);
  // Thread 1 spins for a quarter of the trace.
  EXPECT_NE(view.find('S'), std::string::npos);
  EXPECT_NE(view.find("legend"), std::string::npos);
}

TEST(Ascii, EmptyTrace) {
  trace::TimedTrace t;
  t.num_threads = 1;
  t.duration = 0;
  t.thread_states.resize(1);
  EXPECT_EQ(render_state_view(t), "(empty trace)\n");
}

TEST(Ascii, ColorModeEmitsAnsi) {
  const std::string view = render_state_view(
      sample_trace(), AsciiOptions{.width = 10, .color = true});
  EXPECT_NE(view.find("\x1b["), std::string::npos);
}

TEST(Ascii, RejectsNonPositiveWidth) {
  EXPECT_THROW(render_state_view(sample_trace(), AsciiOptions{.width = 0}),
               Error);
}

}  // namespace
}  // namespace hlsprof::paraver
