// Hard guard on the live observability layer's core contract: with no
// trace hook attached (the default), the run path must be near-free.
// Disabled cost is ONE empty-check of core::RunOptions::trace_progress
// per flush burst, so the guard measures that check, scales it by the
// flush bursts a measured run really has, and asserts the bound stays
// under 2% of that run's time. The enabled path (a LiveTimelineView
// reading the builder after every burst) is measured and reported for
// reference but is not part of the disabled contract.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "core/hlsprof.hpp"
#include "live/timeline.hpp"
#include "workloads/gemm.hpp"

using namespace hlsprof;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Measured wall-clock cost of one disabled hook check: the
/// `if (hook)` Session::run's flush sink performs after every burst.
double disabled_check_seconds() {
  const trace::TimedTraceBuilder builder(4, 0);
  core::TraceHook hook;
  // Empty asm barriers: the hook's address escapes and every iteration
  // clobbers memory, so the check is re-done each time, not hoisted.
  asm volatile("" : : "r"(&hook) : "memory");
  constexpr long long kIters = 16'000'000;
  const auto t0 = Clock::now();
  for (long long i = 0; i < kIters; ++i) {
    if (hook) hook(builder);
    asm volatile("" : : : "memory");
  }
  return seconds_since(t0) / double(kIters);
}

struct RunTime {
  double seconds = 1e9;  // min over repetitions (damps scheduler noise)
  long long flush_bursts = 0;
};

/// Run time of the paper's contended 8-thread naive GEMM at a small size
/// (a trace-heavy run: dozens of flush bursts), optionally with a
/// timeline view reading the builder after every burst.
RunTime sim_run(bool with_view) {
  constexpr int kDim = 24;
  const auto design = std::make_shared<const hls::Design>(
      core::compile(workloads::gemm_naive({.dim = kDim, .threads = 8})));
  RunTime best;
  for (int rep = 0; rep < 5; ++rep) {
    live::LiveTimelineView view(8);  // null output: never draws
    core::RunOptions opts;
    if (with_view) {
      opts.trace_progress = [&view](const trace::TimedTraceBuilder& b) {
        view.update(b);
      };
    }
    core::Session session(design, opts);
    std::vector<float> a(kDim * kDim, 1.0f), b(kDim * kDim, 2.0f),
        c(kDim * kDim, 0.0f);
    session.sim().bind_f32("A", a);
    session.sim().bind_f32("B", b);
    session.sim().bind_f32("C", c);
    const auto t0 = Clock::now();
    const core::RunResult r = session.run();
    best.seconds = std::min(best.seconds, seconds_since(t0));
    best.flush_bursts = r.flush_bursts;
  }
  return best;
}

void check_disabled_overhead() {
  const double check_s = disabled_check_seconds();
  const RunTime run = sim_run(/*with_view=*/false);
  // One check per burst, plus the one after the final drain.
  const double checks = double(run.flush_bursts + 1);
  const double overhead = checks * check_s / run.seconds;
  std::printf(
      "live disabled-path guard: %.2f ns/check x %lld flush bursts, sim run "
      "%.3f ms, bound %.6f%% of run (limit 2%%)\n",
      check_s * 1e9, run.flush_bursts, run.seconds * 1e3, overhead * 100.0);
  if (overhead >= 0.02) {
    std::fprintf(stderr,
                 "FAIL: disabled live-path overhead bound %.6f%% >= 2%%\n",
                 overhead * 100.0);
    std::exit(1);
  }
  // Reference only: what a real observer costs.
  const RunTime live_run = sim_run(/*with_view=*/true);
  std::printf(
      "live enabled-path reference: run %.3f ms with a timeline view "
      "attached (%+.1f%% vs disabled)\n",
      live_run.seconds * 1e3, (live_run.seconds / run.seconds - 1.0) * 100.0);
}

}  // namespace

int main() {
  check_disabled_overhead();
  return 0;
}
