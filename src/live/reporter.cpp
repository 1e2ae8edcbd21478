#include "live/reporter.hpp"


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

}  // namespace hlsprof::live
