// Batch- and fleet-level live reporting, folded from job events
// (runner/job_event.hpp):
//
//  * BatchLiveReporter — the human display of one batch run on a TTY:
//    the live timeline of the job currently holding the display slot
//    (fed by runner::BatchOptions::on_trace), or a one-line totals
//    ticker updated as jobs finish (runner::BatchOptions::on_job_event).
//  * FleetView — the coordinator-side view of a shard fleet: the job
//    events the children print, one lane per shard plus a merged fleet
//    total, redrawn in place on a TTY or emitted as throttled plain lines
//    otherwise.
//
// Everything here is an *observer* of the canonical pipeline: reports,
// Paraver traces, and exit codes are byte-identical with live reporting
// on or off.
#pragma once

#include <array>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "live/timeline.hpp"
#include "runner/job_event.hpp"

namespace hlsprof::live {

enum class LiveMode { off, state, metrics };

/// "state" / "metrics" → the mode; anything else returns false.
bool parse_live_mode(const std::string& s, LiveMode* out);

/// Running totals over finished jobs. Exact integers, so totals of
/// several processes add without loss.
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

struct FleetOptions {
  std::FILE* display = nullptr;  // human stream; null = silent
  /// True when `display` is a TTY: redraw the per-shard frame in place.
  /// False: emit throttled plain merged-summary lines instead.
  bool in_place = false;
  double refresh_hz = 10.0;
};

/// Coordinator-side fold of the job events of a shard fleet. Thread-safe.
/// Each job is folded as often as it is passed in; the shard coordinator
/// (ShardOptions::on_job_event) passes on only the first copy of a job.
class FleetView {
 public:
  FleetView(std::size_t jobs_total, FleetOptions opts);

  /// Fold a job event shard `shard` reported and (throttled) redraw.
  void update(int shard, const runner::JobEvent& e);

  JobTotals merged() const;
  /// Per-shard lanes plus the fleet total, as plain lines (tests).
  std::string render_frame() const;
  /// Final redraw + release of the in-place frame.
  void finish();

 private:
  std::string render_frame_locked() const;
  void render_locked();

  FleetOptions opts_;
  mutable std::mutex mu_;
  std::map<int, JobTotals> lanes_;  // per shard: the jobs it reported
  JobTotals total_;
  int prev_frame_lines_ = 0;
  bool finished_ = false;
  std::chrono::steady_clock::time_point last_render_{};
  bool rendered_once_ = false;
};

}  // namespace hlsprof::live
