// Batch-level live reporting, folded from job events
// (runner/job_event.hpp): BatchLiveReporter is the human display of one
// batch run on a TTY — the live timeline of the job currently holding the
// display slot (fed by runner::BatchOptions::on_trace), or a one-line
// totals ticker updated as jobs finish (runner::BatchOptions::on_job_event).
//
// Everything here is an *observer* of the canonical pipeline: reports,
// Paraver traces, and exit codes are byte-identical with live reporting
// on or off.
#pragma once

#include <array>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>

#include "live/timeline.hpp"
#include "runner/job_event.hpp"

namespace hlsprof::live {

enum class LiveMode { off, state, metrics };

/// "state" / "metrics" → the mode; anything else returns false.
bool parse_live_mode(const std::string& s, LiveMode* out);

/// Running totals over finished jobs, in exact integers.
struct JobTotals {
  std::size_t done = 0;
  std::size_t jobs = 0;
  std::uint64_t cycles = 0;
  std::array<std::uint64_t, 4> state_cycles{};
  std::uint64_t bytes = 0;

  /// Count one finished job (does not touch `jobs`).
  void add(const runner::JobEvent& e);
  /// Share of the traced thread-cycles spent in state `s` (0 untraced).
  double share(int s) const;
  /// Traced DRAM bytes per simulated cycle.
  double bandwidth() const;
};

/// One-line human rendition ("jobs 3/16  cycles 123456  idle 12.5% ...").
std::string format_totals(const JobTotals& t);

struct ReporterOptions {
  LiveMode mode = LiveMode::off;  // what the display shows
  /// Display stream (normally stderr when it is a TTY); null = no
  /// display. The timeline/ticker is drawn in place with ANSI escapes.
  std::FILE* display = nullptr;
  bool color = false;
  double refresh_hz = 10.0;
  int timeline_width = 72;
};

/// Thread-safe: both entry points arrive concurrently from batch worker
/// threads and take the reporter lock.
class BatchLiveReporter {
 public:
  explicit BatchLiveReporter(ReporterOptions opts);
  ~BatchLiveReporter();

  /// runner::BatchOptions::on_trace. In state mode the first job to
  /// report while the display slot is free takes it, and its timeline is
  /// redrawn from `b` until it finishes; other jobs are ignored here.
  void on_trace(int index, const std::string& name,
                const trace::TimedTraceBuilder& b);
  /// runner::BatchOptions::on_job_event: fold the job into the totals,
  /// release the display slot if it held it, redraw the ticker.
  void on_job_event(const runner::JobEvent& e);

  JobTotals totals() const;

  /// Terminate the display (newline after an in-place ticker). Call once
  /// after the batch run returns.
  void finish();

 private:
  ReporterOptions opts_;
  mutable std::mutex mu_;
  std::unique_ptr<LiveTimelineView> view_;
  int display_owner_ = -1;  // job index holding the timeline slot
  JobTotals totals_;
  bool ticker_drawn_ = false;
  bool finished_ = false;
};

}  // namespace hlsprof::live
