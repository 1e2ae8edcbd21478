#include "live/timeline.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "paraver/ascii.hpp"

namespace hlsprof::live {

using sim::ThreadState;

std::string redraw_in_place(const std::string& frame, int prev_lines) {
  std::string out;
  if (prev_lines > 0) out += strf("\x1b[%dA", prev_lines);
  std::size_t pos = 0;
  while (pos < frame.size()) {
    const std::size_t nl = frame.find('\n', pos);
    out += "\x1b[2K";
    out += frame.substr(pos, nl == std::string::npos ? std::string::npos
                                                     : nl - pos + 1);
    if (nl == std::string::npos) break;
    pos = nl + 1;
  }
  return out;
}

LiveTimelineView::LiveTimelineView(int num_threads, TimelineOptions opts)
    : num_threads_(num_threads),
      opts_(std::move(opts)),
      span_(opts_.initial_span),
      buckets_(std::size_t(num_threads),
               std::vector<std::array<cycle_t, 4>>(std::size_t(opts_.width))),
      seen_(std::size_t(num_threads), 0),
      charged_(std::size_t(num_threads), 0) {
  HLSPROF_CHECK(num_threads >= 1, "LiveTimelineView needs >= 1 thread");
  HLSPROF_CHECK(opts_.width >= 2, "LiveTimelineView needs width >= 2");
  HLSPROF_CHECK(opts_.initial_span >= 1,
                "LiveTimelineView needs initial_span >= 1");
}

void LiveTimelineView::compact_to_fit(cycle_t t) {
  // Merge adjacent column pairs (doubling the per-column span) until the
  // clock fits the view again — every already-accumulated cycle keeps
  // its share of the picture, just at coarser resolution.
  while (t > span_ * cycle_t(opts_.width)) {
    const std::size_t half = std::size_t(opts_.width) / 2;
    for (auto& lane : buckets_) {
      for (std::size_t i = 0; i < half; ++i) {
        for (int s = 0; s < 4; ++s) {
          lane[i][std::size_t(s)] = lane[2 * i][std::size_t(s)] +
                                    lane[2 * i + 1][std::size_t(s)];
        }
      }
      for (std::size_t i = half; i < lane.size(); ++i) lane[i] = {};
    }
    span_ *= 2;
  }
}

void LiveTimelineView::charge(std::size_t k, ThreadState state, cycle_t from,
                              cycle_t to) {
  cycle_t c = std::max(from, charged_[k]);
  if (to <= c) return;
  charged_[k] = to;
  while (c < to) {
    const cycle_t col = c / span_;
    const cycle_t step = std::min(to, (col + 1) * span_) - c;
    const std::size_t ci =
        std::min(std::size_t(col), std::size_t(opts_.width) - 1);
    buckets_[k][ci][std::size_t(state) & 3] += step;
    c += step;
  }
}

void LiveTimelineView::update(const trace::TimedTraceBuilder& b) {
  HLSPROF_CHECK(b.num_threads() == num_threads_,
                "LiveTimelineView: builder thread count mismatch");
  if (!b.started()) return;
  const cycle_t now = std::max(last_t_, b.last_clock());
  compact_to_fit(now);
  for (std::size_t k = 0; k < std::size_t(num_threads_); ++k) {
    const std::vector<trace::StateInterval>& closed =
        b.closed_intervals()[k];
    for (; seen_[k] < closed.size(); ++seen_[k]) {
      const trace::StateInterval& iv = closed[seen_[k]];
      charge(k, iv.state, iv.begin, iv.end);
    }
    const auto tid = thread_id_t(k);
    charge(k, b.open_state(tid), b.open_since(tid), now);
  }
  have_any_ = true;
  last_t_ = now;
  maybe_render();
}

std::string LiveTimelineView::render_frame() const {
  std::string out;
  const unsigned long long clk = static_cast<unsigned long long>(last_t_);
  const unsigned long long spn = static_cast<unsigned long long>(span_);
  out += opts_.label.empty() ? std::string() : opts_.label + "  ";
  out += strf("cycle %llu  (%llu cycles/col)\n", clk, spn);
  const int last_col =
      int(std::min(last_t_ / span_, cycle_t(opts_.width) - 1));
  for (int k = 0; k < num_threads_; ++k) {
    out += strf("T%-2d |", k);
    for (int c = 0; c <= last_col; ++c) {
      const auto& b = buckets_[std::size_t(k)][std::size_t(c)];
      // Majority state with the same rare-state visibility boost the
      // post-hoc view applies (paraver/ascii.cpp).
      int best = 0;
      for (int s = 1; s < 4; ++s) {
        if (b[std::size_t(s)] > b[std::size_t(best)]) best = s;
      }
      const cycle_t total = b[0] + b[1] + b[2] + b[3];
      for (int s : {3, 2}) {
        if (total > 0 && b[std::size_t(s)] * 4 >= total) best = s;
      }
      char ch = paraver::state_char(ThreadState(best));
      if (total == 0) ch = have_any_ ? paraver::state_char(ThreadState(0)) : ' ';
      if (opts_.color) {
        out += paraver::state_color(ThreadState(best));
        out.push_back(ch);
        out += paraver::kAnsiReset;
      } else {
        out.push_back(ch);
      }
    }
    for (int c = last_col + 1; c < opts_.width; ++c) out.push_back(' ');
    out += "|\n";
  }
  out += "    " + paraver::state_legend() + "\n";
  return out;
}

void LiveTimelineView::maybe_render() {
  if (opts_.out == nullptr || finished_) return;
  const auto now = std::chrono::steady_clock::now();
  if (frames_ > 0) {
    const double min_gap =
        opts_.refresh_hz > 0 ? 1.0 / opts_.refresh_hz : 0.0;
    const std::chrono::duration<double> since = now - last_render_;
    if (since.count() < min_gap) return;
  }
  last_render_ = now;
  render();
}

void LiveTimelineView::render() {
  const std::string frame = render_frame();
  const std::string out =
      redraw_in_place(frame, frames_ > 0 ? prev_frame_lines_ : 0);
  std::fwrite(out.data(), 1, out.size(), opts_.out);
  std::fflush(opts_.out);
  prev_frame_lines_ = int(std::count(frame.begin(), frame.end(), '\n'));
  ++frames_;
}

void LiveTimelineView::finish() {
  if (finished_) return;
  if (opts_.out != nullptr) render();
  finished_ = true;
}

}  // namespace hlsprof::live
