// Simulator throughput benchmark: simulated cycles per CPU second
// for three tiers — the reference event loop, the exact fast path (direct
// dispatch + batched memory streams), and the approximate fast-forward
// tier (SimParams::fast_forward) — on the GEMM case study (1 and 8
// hardware threads) and the pi series. Exits non-zero if a tier regresses
// on GEMM — the perf contract ctest's bench_sim_smoke and bench_sim_ci
// enforce. On one thread, where each tier has a real margin, that is a
// time gate: the fast path slower than the reference loop, or the approx
// tier slower than the fast path. At eight threads all tiers run at about
// the same speed, so a time ratio there measures host noise; that case is
// gated on counted work instead: the fast path must commit work off the
// event heap, and the approx tier must skip cycles and execute fewer
// memory requests than the fast path. Also exits non-zero (status 2) if
// the approx tier's total_cycles drifts more than 0.5% from the reference
// on GEMM, or differs at all on pi (no external ops in its hot loop, so
// fast-forward must never engage there).
//
// The run IS the measurement (one simulation per rep, best-of-reps, timed
// on the simulating thread's CPU clock so that time the host gives to
// other work does not count); it writes BENCH_sim.json + BENCH_ff.json. Flags: --dim=N --steps=N --reps=N
// --out=PATH --ff-out=PATH.
#include <cmath>
#include <cstdio>
#include <ctime>
#include <string>
#include <vector>

#include "common/argparse.hpp"
#include "common/strings.hpp"
#include "core/hlsprof.hpp"
#include "workloads/gemm.hpp"
#include "workloads/pi.hpp"
#include "workloads/reference.hpp"

using namespace hlsprof;

namespace {

enum class Mode { reference, fast, approx };

/// How run_case's tiers are gated (see the top of the file).
enum class Gate { none, time, work };

const char* gate_name(Gate g) {
  switch (g) {
    case Gate::none: return "none";
    case Gate::time: return "time";
    case Gate::work: return "work";
  }
  return "?";
}

struct ModeTiming {
  cycle_t total_cycles = 0;
  double best_seconds = 0.0;
  double cycles_per_sec = 0.0;
  std::uint64_t direct_dispatch = 0;
  std::uint64_t batched_mem = 0;
  std::uint64_t ff_phases = 0;
  std::uint64_t ff_cycles_skipped = 0;
};

struct CaseResult {
  std::string name;
  ModeTiming fast;
  ModeTiming ref;
  ModeTiming approx;
  double speedup = 0.0;     // fast vs reference
  double ff_speedup = 0.0;  // approx vs fast
  double ff_cycle_err = 0.0;  // |approx - ref| / ref total cycles
  Gate gate = Gate::none;
};

/// CPU time of the calling thread, in seconds.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

/// One timed run: builds a fresh simulator (binding included, so all
/// modes pay identical setup) and folds the rep into `m` (best-of-reps).
void time_rep(const hls::Design& design,
              const std::function<void(sim::Simulator&)>& bind, Mode mode,
              bool first, ModeTiming& m) {
  sim::SimParams p;
  p.reference_event_loop = mode == Mode::reference;
  p.fast_forward = mode == Mode::approx;
  sim::Simulator s(design, p);
  bind(s);
  const double t0 = thread_cpu_seconds();
  const sim::SimResult res = s.run(nullptr);
  const double sec = thread_cpu_seconds() - t0;
  if (first || sec < m.best_seconds) m.best_seconds = sec;
  m.total_cycles = res.total_cycles;
  const auto st = s.fast_path_stats();
  m.direct_dispatch = st.direct_dispatch;
  m.batched_mem = st.batched_mem;
  const auto ff = s.fast_forward_stats();
  m.ff_phases = ff.phases;
  m.ff_cycles_skipped = ff.cycles_skipped;
}

CaseResult run_case(const std::string& name, const hls::Design& design,
                    const std::function<void(sim::Simulator&)>& bind,
                    int reps, Gate gate) {
  CaseResult c;
  c.name = name;
  c.gate = gate;
  // Interleave the modes rep-by-rep so background-load drift on the
  // machine hits all of them equally instead of biasing the ratios.
  for (int r = 0; r < reps; ++r) {
    time_rep(design, bind, Mode::reference, r == 0, c.ref);
    time_rep(design, bind, Mode::fast, r == 0, c.fast);
    time_rep(design, bind, Mode::approx, r == 0, c.approx);
  }
  for (ModeTiming* m : {&c.ref, &c.fast, &c.approx}) {
    m->cycles_per_sec =
        m->best_seconds > 0 ? double(m->total_cycles) / m->best_seconds : 0.0;
  }
  c.speedup = c.ref.cycles_per_sec > 0
                  ? c.fast.cycles_per_sec / c.ref.cycles_per_sec
                  : 0.0;
  c.ff_speedup = c.fast.cycles_per_sec > 0
                     ? c.approx.cycles_per_sec / c.fast.cycles_per_sec
                     : 0.0;
  if (c.fast.total_cycles != c.ref.total_cycles) {
    std::fprintf(stderr,
                 "FATAL %s: fast path diverged from reference "
                 "(%llu vs %llu cycles)\n",
                 name.c_str(),
                 static_cast<unsigned long long>(c.fast.total_cycles),
                 static_cast<unsigned long long>(c.ref.total_cycles));
    std::exit(2);
  }
  // Approximate tier accuracy contract: <= 0.5% total-cycle drift where
  // fast-forward engages, bit-identical where it does not (pi: no
  // external ops in the hot loop, so zero phases and zero drift).
  c.ff_cycle_err =
      c.ref.total_cycles > 0
          ? std::abs(double(c.approx.total_cycles) -
                     double(c.ref.total_cycles)) /
                double(c.ref.total_cycles)
          : 0.0;
  const double tol = c.approx.ff_phases > 0 ? 0.005 : 0.0;
  if (c.ff_cycle_err > tol) {
    std::fprintf(stderr,
                 "FATAL %s: approx tier drifted %.4f%% from reference "
                 "(%llu vs %llu cycles, %llu ff phases)\n",
                 name.c_str(), 100.0 * c.ff_cycle_err,
                 static_cast<unsigned long long>(c.approx.total_cycles),
                 static_cast<unsigned long long>(c.ref.total_cycles),
                 static_cast<unsigned long long>(c.approx.ff_phases));
    std::exit(2);
  }
  std::printf(
      "%-10s %12llu cycles | ref %10.3g cyc/s | fast %10.3g cyc/s | "
      "%.2fx | approx %10.3g cyc/s | %.2fx | ff %llu/%llu | err %.4f%%\n",
      name.c_str(), static_cast<unsigned long long>(c.fast.total_cycles),
      c.ref.cycles_per_sec, c.fast.cycles_per_sec, c.speedup,
      c.approx.cycles_per_sec, c.ff_speedup,
      static_cast<unsigned long long>(c.approx.ff_phases),
      static_cast<unsigned long long>(c.approx.ff_cycles_skipped),
      100.0 * c.ff_cycle_err);
  return c;
}

std::string mode_json(const char* key, const ModeTiming& m) {
  return strf(
      "    \"%s\": {\"cycles\": %llu, \"best_seconds\": %.6f, "
      "\"cycles_per_sec\": %.1f, \"sim.direct_dispatch\": %llu, "
      "\"sim.batched_mem\": %llu}",
      key, static_cast<unsigned long long>(m.total_cycles), m.best_seconds,
      m.cycles_per_sec, static_cast<unsigned long long>(m.direct_dispatch),
      static_cast<unsigned long long>(m.batched_mem));
}

/// BENCH_ff.json: the exact-vs-approx comparison CI's smoke step parses.
std::string ff_json(const std::vector<CaseResult>& cases) {
  std::string json = "{\n  \"cases\": {\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const CaseResult& c = cases[i];
    json += strf(
        "  \"%s\": {\"exact_cycles_per_sec\": %.1f, "
        "\"approx_cycles_per_sec\": %.1f, \"ff_speedup\": %.3f, "
        "\"ff_phases\": %llu, \"ff_cycles_skipped\": %llu, "
        "\"cycle_err\": %.6f, \"gate\": \"%s\"}%s\n",
        c.name.c_str(), c.fast.cycles_per_sec, c.approx.cycles_per_sec,
        c.ff_speedup, static_cast<unsigned long long>(c.approx.ff_phases),
        static_cast<unsigned long long>(c.approx.ff_cycles_skipped),
        c.ff_cycle_err, gate_name(c.gate), i + 1 < cases.size() ? "," : "");
  }
  json += "  }\n}\n";
  return json;
}

}  // namespace

int main(int argc, char** argv) {
  long long dim = 64;
  long long steps = 100000;
  long long reps = 3;
  std::string out = "BENCH_sim.json";
  std::string ff_out = "BENCH_ff.json";
  ArgParser parser;
  parser.option_int("dim", &dim, "GEMM matrix dimension (default 64)")
      .option_int("steps", &steps, "pi iterations (default 100000)")
      .option_int("reps", &reps, "timed runs per tier, best kept (default 3)")
      .option("out", &out, "throughput JSON path (default BENCH_sim.json)")
      .option("ff-out", &ff_out,
              "exact-vs-approx JSON path (default BENCH_ff.json)");
  std::string error = parser.parse(argc, argv) ? "" : parser.error();
  for (const auto& [flag, v] : {std::pair{"--dim", dim},
                                std::pair{"--steps", steps},
                                std::pair{"--reps", reps}}) {
    if (error.empty() && v < 1) error = std::string(flag) + " must be >= 1";
  }
  if (error.empty() && !parser.positionals().empty()) {
    error = "unexpected argument " + parser.positionals().front();
  }
  if (!error.empty()) {
    std::fprintf(stderr, "bench_sim: %s\nusage: bench_sim [flags]\n%s",
                 error.c_str(), parser.help_text().c_str());
    return 2;
  }

  std::vector<CaseResult> cases;

  {
    workloads::GemmConfig cfg;
    cfg.dim = dim;
    cfg.threads = 1;
    const auto a = workloads::random_matrix(cfg.dim, 11);
    const auto b = workloads::random_matrix(cfg.dim, 22);
    std::vector<float> c(std::size_t(dim) * std::size_t(dim));
    hls::Design d = hls::compile(workloads::gemm_no_critical(cfg));
    cases.push_back(run_case(
        "gemm_t1", d,
        [&](sim::Simulator& s) {
          s.bind_f32("A", std::span<float>(const_cast<float*>(a.data()),
                                           a.size()));
          s.bind_f32("B", std::span<float>(const_cast<float*>(b.data()),
                                           b.size()));
          s.bind_f32("C", c);
        },
        reps, Gate::time));
  }

  {
    workloads::GemmConfig cfg;
    cfg.dim = dim;
    cfg.threads = 8;
    const auto a = workloads::random_matrix(cfg.dim, 11);
    const auto b = workloads::random_matrix(cfg.dim, 22);
    std::vector<float> c(std::size_t(dim) * std::size_t(dim));
    hls::Design d = hls::compile(workloads::gemm_no_critical(cfg));
    cases.push_back(run_case(
        "gemm_t8", d,
        [&](sim::Simulator& s) {
          s.bind_f32("A", std::span<float>(const_cast<float*>(a.data()),
                                           a.size()));
          s.bind_f32("B", std::span<float>(const_cast<float*>(b.data()),
                                           b.size()));
          s.bind_f32("C", c);
        },
        reps, Gate::work));
  }

  {
    workloads::PiConfig cfg;
    cfg.steps = steps;
    cfg.threads = 8;
    std::vector<float> pi_out(1);
    hls::Design d = hls::compile(workloads::pi_series(cfg));
    cases.push_back(run_case(
        "pi_t8", d,
        [&](sim::Simulator& s) {
          s.set_arg("steps", std::int64_t(cfg.steps));
          s.set_arg("inv_steps", 1.0 / double(cfg.steps));
          s.bind_f32("out", pi_out);
        },
        reps, Gate::none));
  }

  std::string json = "{\n";
  json += strf("  \"dim\": %lld,\n  \"steps\": %lld,\n  \"reps\": %lld,\n",
               dim, steps, reps);
  json += "  \"cases\": {\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const CaseResult& c = cases[i];
    json += strf("  \"%s\": {\n", c.name.c_str());
    json += mode_json("reference", c.ref) + ",\n";
    json += mode_json("fast", c.fast) + ",\n";
    json += mode_json("approx", c.approx) + ",\n";
    json += strf("    \"speedup\": %.3f,\n    \"ff_speedup\": %.3f,\n"
                 "    \"gate\": \"%s\"\n  }%s\n",
                 c.speedup, c.ff_speedup, gate_name(c.gate),
                 i + 1 < cases.size() ? "," : "");
  }
  json += "  }\n}\n";

  if (std::FILE* f = std::fopen(out.c_str(), "wb")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", out.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  const std::string ffj = ff_json(cases);
  if (std::FILE* f = std::fopen(ff_out.c_str(), "wb")) {
    std::fwrite(ffj.data(), 1, ffj.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", ff_out.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", ff_out.c_str());
    return 1;
  }

  // The time gate tolerates the few percent CPU time jitters run to run;
  // it exists to catch a tier that got meaningfully slower.
  constexpr double kNoiseSlack = 0.90;
  bool ok = true;
  for (const CaseResult& c : cases) {
    if (c.gate == Gate::time && c.speedup < kNoiseSlack) {
      std::fprintf(stderr,
                   "FAIL %s: fast path slower than reference (%.2fx)\n",
                   c.name.c_str(), c.speedup);
      ok = false;
    }
    if (c.gate == Gate::time && c.ff_speedup < kNoiseSlack) {
      std::fprintf(stderr,
                   "FAIL %s: approx tier slower than the fast path "
                   "(%.2fx)\n",
                   c.name.c_str(), c.ff_speedup);
      ok = false;
    }
    if (c.gate == Gate::work &&
        c.fast.direct_dispatch + c.fast.batched_mem == 0) {
      std::fprintf(stderr,
                   "FAIL %s: fast path committed nothing off the event "
                   "heap\n",
                   c.name.c_str());
      ok = false;
    }
    if (c.gate == Gate::work &&
        (c.approx.ff_cycles_skipped == 0 ||
         c.approx.batched_mem >= c.fast.batched_mem)) {
      std::fprintf(stderr,
                   "FAIL %s: approx tier skipped %llu cycles and executed "
                   "%llu batched requests (fast path: %llu)\n",
                   c.name.c_str(),
                   static_cast<unsigned long long>(c.approx.ff_cycles_skipped),
                   static_cast<unsigned long long>(c.approx.batched_mem),
                   static_cast<unsigned long long>(c.fast.batched_mem));
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
