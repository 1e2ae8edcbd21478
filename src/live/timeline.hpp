// Live ANSI timeline: an in-place terminal rendering of the per-thread
// state view that updates *while the run executes*, read from the run's
// canonical trace::TimedTraceBuilder between flush bursts (the
// core::RunOptions::trace_progress hook). One lane per hardware thread,
// one character per time column using the shared paraver/ascii legend
// ('.' Idle, '#' Running, 'C' Critical, 'S' Spinning). Columns cover a
// fixed cycle span each; when the run outgrows the view, adjacent column
// pairs are merged and the span doubles, so the whole run always fits
// the terminal width — the live analogue of Paraver's zoom-to-fit.
//
// Rendering is throttled (default ~10 Hz) and strictly single-writer:
// update() is called from the worker thread running the simulation and
// frames are written from that same thread. With a null output stream
// nothing is ever auto-rendered (render_frame() still works — the form
// the tests use).
#pragma once

#include <array>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "trace/timed_trace.hpp"

namespace hlsprof::live {

struct TimelineOptions {
  int width = 72;            // time columns
  double refresh_hz = 10.0;  // max frames per second
  bool color = false;        // ANSI state colors (paraver palette)
  std::FILE* out = nullptr;  // frame destination; null = never auto-render
  cycle_t initial_span = 512;  // cycles per column before any compaction
  /// Label prefixed to the header line (e.g. the job name).
  std::string label;
};

/// ANSI for drawing `frame` over the previous frame of `prev_lines`
/// lines: cursor up, then each line erased as it is rewritten.
std::string redraw_in_place(const std::string& frame, int prev_lines);

class LiveTimelineView {
 public:
  explicit LiveTimelineView(int num_threads,
                            TimelineOptions opts = TimelineOptions{});

  /// Bucket what `b` folded since the previous call — intervals it has
  /// closed, and each thread's open state up to its latest record clock
  /// — then render a frame if one is due. Pass the same builder every
  /// time.
  void update(const trace::TimedTraceBuilder& b);

  /// Render the final frame (if an output stream is set). Idempotent.
  void finish();

  /// The current frame as plain lines (no cursor movement), exactly what
  /// an auto-render would draw. Exposed for tests.
  std::string render_frame() const;

  cycle_t span() const { return span_; }
  cycle_t last_clock() const { return last_t_; }

 private:
  /// Add [from, to) of thread k in `state` to the columns it crosses,
  /// skipping cycles already charged to that thread.
  void charge(std::size_t k, sim::ThreadState state, cycle_t from, cycle_t to);
  void compact_to_fit(cycle_t t);
  void maybe_render();
  void render();

  int num_threads_;
  TimelineOptions opts_;
  cycle_t span_;
  // buckets_[thread][column][state] = cycles.
  std::vector<std::vector<std::array<cycle_t, 4>>> buckets_;
  std::vector<std::size_t> seen_;  // closed intervals bucketed, per thread
  std::vector<cycle_t> charged_;   // cycle each thread is bucketed up to
  bool have_any_ = false;
  cycle_t last_t_ = 0;
  int frames_ = 0;
  int prev_frame_lines_ = 0;
  bool finished_ = false;
  std::chrono::steady_clock::time_point last_render_{};
};

}  // namespace hlsprof::live
