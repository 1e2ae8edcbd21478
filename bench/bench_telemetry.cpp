// Hard guard on the host telemetry layer's core contract: instrumentation
// left compiled into the simulator hot path must be near-free while the
// registry is disabled. The guard measures the real per-touch cost of a
// disabled metric mutation, scales it by a generous over-estimate of
// touches per simulator run, and asserts the bound stays under 2% of the
// measured run time.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "core/hlsprof.hpp"
#include "telemetry/telemetry.hpp"
#include "workloads/simple.hpp"

using namespace hlsprof;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Measured wall-clock cost of one disabled-registry metric touch (the
/// relaxed enabled-load + early return every instrumentation site pays).
double disabled_touch_seconds() {
  telemetry::Registry reg;  // never enabled
  telemetry::Counter& c = reg.counter("bench.disabled");
  telemetry::Histogram& h =
      reg.histogram("bench.disabled_hist", telemetry::exp_bounds(1.0, 2.0, 8));
  constexpr long long kIters = 4'000'000;
  const auto t0 = Clock::now();
  for (long long i = 0; i < kIters; ++i) {
    c.add(1);
    h.observe(double(i));
  }
  const double elapsed = seconds_since(t0);
  if (c.value() != 0 || h.count() != 0) {
    std::fprintf(stderr, "FAIL: disabled registry accumulated state\n");
    std::exit(1);
  }
  return elapsed / double(2 * kIters);
}

/// Median-ish (min of several) simulator run time for a small workload —
/// min damps scheduler noise, which only ever inflates a sample.
double sim_run_seconds() {
  const auto design = std::make_shared<const hls::Design>(
      core::compile(workloads::vecadd(4096, 4)));
  double best = 1e9;
  for (int rep = 0; rep < 5; ++rep) {
    core::RunOptions opts;
    core::Session session(design, opts);
    std::vector<float> x(4096, 1.0f), y(4096, 2.0f), z(4096, 0.0f);
    session.sim().bind_f32("x", x);
    session.sim().bind_f32("y", y);
    session.sim().bind_f32("z", z);
    const auto t0 = Clock::now();
    session.run();
    best = std::min(best, seconds_since(t0));
  }
  return best;
}

/// Instrumentation sites are coarse (per run / per phase / per burst,
/// never per cycle), so a simulator run touches the registry a handful of
/// times; 256 is a ~10x over-estimate with room for future sites.
constexpr double kTouchesPerRun = 256.0;

void check_disabled_overhead() {
  const double touch_s = disabled_touch_seconds();
  const double run_s = sim_run_seconds();
  const double overhead = kTouchesPerRun * touch_s / run_s;
  std::printf(
      "telemetry disabled-path guard: %.2f ns/touch, sim run %.3f ms, "
      "bound %.4f%% of run (limit 2%%)\n",
      touch_s * 1e9, run_s * 1e3, overhead * 100.0);
  if (overhead >= 0.02) {
    std::fprintf(stderr,
                 "FAIL: disabled telemetry overhead bound %.4f%% >= 2%%\n",
                 overhead * 100.0);
    std::exit(1);
  }
}

}  // namespace

int main() {
  check_disabled_overhead();
  return 0;
}
