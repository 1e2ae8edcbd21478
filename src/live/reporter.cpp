#include "live/reporter.hpp"

#include <algorithm>

#include "common/strings.hpp"

namespace hlsprof::live {

bool parse_live_mode(const std::string& s, LiveMode* out) {
  if (s == "state") {
    *out = LiveMode::state;
    return true;
  }
  if (s == "metrics") {
    *out = LiveMode::metrics;
    return true;
  }
  return false;
}

void JobTotals::add(const runner::JobEvent& e) {
  ++done;
  cycles += e.cycles;
  for (std::size_t s = 0; s < state_cycles.size(); ++s) {
    state_cycles[s] += e.state_cycles[s];
  }
  bytes += e.bytes;
}

double JobTotals::share(int s) const {
  std::uint64_t traced = 0;
  for (const std::uint64_t c : state_cycles) traced += c;
  return traced == 0 ? 0.0
                     : double(state_cycles[std::size_t(s)]) / double(traced);
}

double JobTotals::bandwidth() const {
  return cycles == 0 ? 0.0 : double(bytes) / double(cycles);
}

std::string format_totals(const JobTotals& t) {
  return strf(
      "jobs %zu/%zu  cycles %llu  idle %.1f%% run %.1f%% crit %.1f%% "
      "spin %.1f%%  bw %.3f B/cyc",
      t.done, t.jobs, static_cast<unsigned long long>(t.cycles),
      t.share(0) * 100.0, t.share(1) * 100.0, t.share(2) * 100.0,
      t.share(3) * 100.0, t.bandwidth());
}

// ---------------------------------------------------------------------------
// BatchLiveReporter

BatchLiveReporter::BatchLiveReporter(ReporterOptions opts)
    : opts_(std::move(opts)) {}

BatchLiveReporter::~BatchLiveReporter() { finish(); }

void BatchLiveReporter::on_trace(int index, const std::string& name,
                                 const trace::TimedTraceBuilder& b) {
  if (opts_.mode != LiveMode::state || opts_.display == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (display_owner_ < 0 && !finished_) {
    TimelineOptions topts;
    topts.width = opts_.timeline_width;
    topts.refresh_hz = opts_.refresh_hz;
    topts.color = opts_.color;
    topts.out = opts_.display;
    topts.label = name;
    view_ = std::make_unique<LiveTimelineView>(b.num_threads(),
                                               std::move(topts));
    display_owner_ = index;
  }
  if (display_owner_ == index) view_->update(b);
}

void BatchLiveReporter::on_job_event(const runner::JobEvent& e) {
  std::lock_guard<std::mutex> lock(mu_);
  totals_.jobs = e.jobs;
  totals_.add(e);
  if (display_owner_ == e.index) {
    view_->finish();
    view_.reset();
    display_owner_ = -1;
  }
  if (opts_.display != nullptr && opts_.mode == LiveMode::metrics) {
    const std::string line = "\r\x1b[2K" + format_totals(totals_);
    std::fwrite(line.data(), 1, line.size(), opts_.display);
    std::fflush(opts_.display);
    ticker_drawn_ = true;
  }
}

JobTotals BatchLiveReporter::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  return totals_;
}

void BatchLiveReporter::finish() {
  std::lock_guard<std::mutex> lock(mu_);
  if (finished_) return;
  finished_ = true;
  if (ticker_drawn_ && opts_.display != nullptr) {
    std::fputc('\n', opts_.display);
    std::fflush(opts_.display);
  }
}

// ---------------------------------------------------------------------------
// FleetView

FleetView::FleetView(std::size_t jobs_total, FleetOptions opts)
    : opts_(opts) {
  total_.jobs = jobs_total;
}

void FleetView::update(int shard, const runner::JobEvent& e) {
  std::lock_guard<std::mutex> lock(mu_);
  if (finished_) return;
  total_.add(e);
  JobTotals& lane = lanes_[shard];
  lane.jobs = e.jobs;
  lane.add(e);
  if (opts_.display == nullptr) return;
  const auto now = std::chrono::steady_clock::now();
  if (rendered_once_) {
    const double min_gap = opts_.refresh_hz > 0 ? 1.0 / opts_.refresh_hz : 0.0;
    const std::chrono::duration<double> since = now - last_render_;
    if (since.count() < min_gap) return;
  }
  last_render_ = now;
  render_locked();
}

JobTotals FleetView::merged() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

std::string FleetView::render_frame() const {
  std::lock_guard<std::mutex> lock(mu_);
  return render_frame_locked();
}

std::string FleetView::render_frame_locked() const {
  std::string out;
  for (const auto& [shard, lane] : lanes_) {
    out += strf("shard %-2d  ", shard) + format_totals(lane) + "\n";
  }
  out += "fleet     " + format_totals(total_) + "\n";
  return out;
}

void FleetView::render_locked() {
  std::string out;
  if (opts_.in_place) {
    const std::string frame = render_frame_locked();
    out = redraw_in_place(frame, rendered_once_ ? prev_frame_lines_ : 0);
    prev_frame_lines_ = int(std::count(frame.begin(), frame.end(), '\n'));
  } else {
    // Non-TTY: one plain merged summary per refresh, no escapes.
    out = "live: " + format_totals(total_) + "\n";
  }
  std::fwrite(out.data(), 1, out.size(), opts_.display);
  std::fflush(opts_.display);
  rendered_once_ = true;
}

void FleetView::finish() {
  std::lock_guard<std::mutex> lock(mu_);
  if (finished_) return;
  finished_ = true;
  if (opts_.display != nullptr && rendered_once_ && opts_.in_place) {
    render_locked();
  }
}

}  // namespace hlsprof::live
