// hlsprof-reproduce — print every table of the paper's evaluation (§V) as
// Markdown: profiling overhead (E1/E2), the naive GEMM state view and the
// five-version speedup ladder (E3/E4), blocked vs double-buffered phases
// (E5/E6), pi scaling (E7), 8-thread saturation (E8) and the ablations
// A1-A4, each next to the paper's number where the paper gives one.
//
//   hlsprof-reproduce [--quick]
//
//   --quick  shrink the GEMM sweeps of E3-E6, E8 and A1 so the whole run
//            takes a few seconds; E1/E2, E7 and A2-A4 keep their paper
//            sizes. tests/golden/reproduce_quick.md pins this output byte
//            for byte (Reproduce.QuickTablesMatchGolden). After an
//            intended model change, regenerate it from the repo root:
//              build/tools/hlsprof-reproduce --quick > tests/golden/reproduce_quick.md
//
// Every simulated table is a sweep manifest — the text hlsprof-run reads —
// run through runner::Batch, so workers, the design cache, verification
// and seeding are the runner's. Values the batch report lacks (bandwidth
// curves, thread-0 phase structure, thread start/end spread) are computed
// from each job's RunResult inside its check, after the manifest's own
// verification. Every profiled row carries the FNV-1a hash of its Paraver
// .prv bytes. The output holds no wall times or host details: it is the
// same on every run and for any worker count.
//
// Exit status: 0 ok, 1 if a job failed, 2 on usage errors.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "common/argparse.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "core/hlsprof.hpp"
#include "paraver/analysis.hpp"
#include "paraver/writer.hpp"
#include "runner/runner.hpp"
#include "workloads/gemm.hpp"
#include "workloads/pi.hpp"

using namespace hlsprof;

namespace {

/// Problem sizes of the experiments --quick shrinks.
struct Sizes {
  int ladder_dim;  // E3/E4
  int phase_dim;   // E5/E6
  int sweep_dim;   // E8
  int period_dim;  // A1
};
constexpr Sizes kPaper{512, 128, 128, 96};
constexpr Sizes kQuick{64, 64, 64, 48};

/// Per-job values the batch report does not carry. The trace-derived
/// fields stay empty when the job ran without profiling.
struct Extra {
  double mean_bw = 0;
  double peak_bw = 0;
  std::vector<double> bw;  // read + written bytes/cycle per window
  paraver::PhaseProfile phase;  // thread 0, as in the paper's zoom
  double overlap = 0;           // thread-0 FLOPs under memory traffic
  std::vector<double> mem0;     // thread-0 bytes read per cycle
  std::vector<double> fp0;      // thread-0 FLOPs per cycle
  cycle_t first_done = ~cycle_t{0};
  cycle_t last_start = 0;
  std::string prv_hash;
};

Extra extract(const core::RunResult& r) {
  Extra x;
  for (const auto& t : r.sim.threads) {
    x.first_done = std::min(x.first_done, t.end);
    x.last_start = std::max(x.last_start, t.start);
  }
  if (!r.has_trace) return x;
  const trace::TimedTrace& t = r.timeline;
  x.mean_bw = paraver::mean_bandwidth(t);
  x.peak_bw = paraver::peak_bandwidth(t);
  x.bw = paraver::rate_series(t, trace::EventKind::bytes_read);
  const auto wr = paraver::rate_series(t, trace::EventKind::bytes_written);
  for (std::size_t i = 0; i < x.bw.size() && i < wr.size(); ++i) {
    x.bw[i] += wr[i];
  }
  x.phase = paraver::phase_profile_thread(t, 0);
  x.overlap = paraver::weighted_compute_mem_overlap(t, 0);
  x.mem0 = paraver::rate_series_thread(t, trace::EventKind::bytes_read, 0);
  x.fp0 = paraver::rate_series_thread(t, trace::EventKind::fp_ops, 0);
  // The application name only reaches the .row file.
  x.prv_hash = hex_digest(fnv1a64(paraver::to_paraver(t, "").prv));
  return x;
}

struct Row {
  runner::JobResult job;
  Extra x;
};

/// Run one manifest through the batch runner, sharing one design cache
/// across all sweeps. Throws if any job fails.
std::vector<Row> sweep(const std::string& manifest) {
  static runner::DesignCache cache;
  runner::ManifestRun m = runner::parse_manifest(manifest);
  std::vector<Extra> extras(m.batch.size());
  for (int i = 0; i < int(m.batch.size()); ++i) {
    runner::JobSpec& spec = m.batch.spec_mut(i);
    spec.check = [verify = std::move(spec.check), x = &extras[std::size_t(i)]](
                     const core::RunResult& r, runner::HostBuffers& bufs) {
      if (verify) verify(r, bufs);
      *x = extract(r);
    };
  }
  m.options.cache = &cache;
  const runner::BatchResult result = m.batch.run(m.options);
  std::vector<Row> rows;
  for (const runner::JobResult& j : result.jobs) {
    if (j.status != runner::JobStatus::ok) {
      fail("job " + j.name + " " + runner::job_status_name(j.status) + ": " +
           j.error);
    }
    rows.push_back({j, std::move(extras[std::size_t(j.index)])});
  }
  return rows;
}

void overhead_tables() {
  struct Design {
    std::string name;
    double fmax;
    profiling::ProfilingOverhead oh;
  };
  auto measure = [](std::string name, ir::Kernel kernel) {
    const hls::Design d = core::compile(std::move(kernel));
    return Design{std::move(name), d.fmax_mhz,
                  profiling::estimate_overhead(d, {})};
  };
  workloads::GemmConfig cfg;
  cfg.dim = 512;
  std::vector<Design> gemm;
  for (const auto& v : workloads::gemm_versions()) {
    gemm.push_back(measure(v.name, v.build(cfg)));
  }

  std::printf("## E1 — profiling overhead, GEMM designs (§V-B case 1)\n\n");
  std::printf("| design (512²) | Δregs | ΔALMs | fmax (MHz) | Δfmax (MHz) |\n"
              "|---|---:|---:|---:|---:|\n");
  std::vector<double> regs, alms, dfmax;
  for (const Design& d : gemm) {
    std::printf("| %s | %.2f %% | %.2f %% | %.1f | −%.1f |\n", d.name.c_str(),
                d.oh.register_pct, d.oh.alm_pct, d.fmax, d.oh.fmax_delta_mhz);
    regs.push_back(d.oh.register_pct);
    alms.push_back(d.oh.alm_pct);
    dfmax.push_back(d.oh.fmax_delta_mhz);
  }
  std::printf("| **max** | %.2f %% (paper 5.4 %%) | %.2f %% (paper 4 %%) | | "
              "−%.1f (paper −8 at 140) |\n",
              max_of(regs), max_of(alms), max_of(dfmax));
  std::printf("| **geo-mean** | %.2f %% (paper 2.41 %%) | %.2f %% (paper "
              "3.42 %%) | | |\n\n",
              geomean(regs), geomean(alms));

  const profiling::OverheadBreakdown& p = gemm.front().oh.parts;
  std::printf("| counter (Naive) | ALMs | FFs | BRAM bits |\n"
              "|---|---:|---:|---:|\n");
  for (const auto& [name, a] :
       {std::pair{"state tracker", &p.state_tracker},
        std::pair{"stall counters", &p.stall_counters},
        std::pair{"compute counters", &p.compute_counters},
        std::pair{"memory counters", &p.memory_counters},
        std::pair{"flush engine", &p.flush_engine}}) {
    std::printf("| %s | %.0f | %.0f | %.0f |\n", name, a->alm, a->ff,
                a->bram_bits);
  }

  const Design pi = measure("pi", workloads::pi_series({}));
  std::printf("\n## E2 — profiling overhead, pi (§V-B case 2)\n\n");
  std::printf("| | Δregs | ΔALMs | fmax (MHz) | Δfmax (MHz) |\n"
              "|---|---:|---:|---:|---:|\n");
  std::printf("| measured | %.2f %% | %.2f %% | %.1f | −%.1f |\n",
              pi.oh.register_pct, pi.oh.alm_pct, pi.fmax,
              pi.oh.fmax_delta_mhz);
  std::printf("| paper | 1.3 %% | 1.5 %% | 148 | −1 |\n\n");
}

void ladder_tables(int dim) {
  const std::vector<Row> rows = sweep(strf(
      "workload = gemm\n"
      "version = naive, no_critical, vectorized, blocked, double_buffered\n"
      "dim = %d\n",
      dim));

  const runner::JobResult& naive = rows.front().job;
  std::printf("## E3 — Fig. 6: naive GEMM state view (§V-C, %d², 8 "
              "threads)\n\n",
              dim);
  std::printf("| | cycles | critical | spinning |\n|---|---:|---:|---:|\n");
  std::printf("| measured | %s | %.2f %% | %.2f %% |\n",
              with_commas(naive.kernel_cycles).c_str(),
              100 * naive.state_critical, 100 * naive.state_spinning);
  std::printf("| paper (512²) | 853,522,308 | 1.54 %% | 1.57 %% |\n\n");

  const char* paper_speedup[] = {"1.00×", "1.14×", "2.20×", "5.28×", "19×"};
  std::printf("## E4 — Fig. 7: the five-version speedup ladder (%d²)\n\n",
              dim);
  std::printf("| version | cycles | vs naive | vs prev | paper vs naive | "
              "mean BW (B/cycle) | peak BW (B/cycle) | .prv fnv1a64 |\n"
              "|---|---:|---:|---:|---:|---:|---:|---|\n");
  cycle_t prev = naive.kernel_cycles;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::printf("| %s | %s | %.2f× | %.2f× | %s | %.3f | %.3f | `%s` |\n",
                workloads::gemm_versions()[i].name.c_str(),
                with_commas(r.job.kernel_cycles).c_str(),
                double(naive.kernel_cycles) / double(r.job.kernel_cycles),
                double(prev) / double(r.job.kernel_cycles), paper_speedup[i],
                r.x.mean_bw, r.x.peak_bw, r.x.prv_hash.c_str());
    prev = r.job.kernel_cycles;
  }
  std::printf("\nBandwidth over normalized time (read + written bytes/cycle, "
              "Fig. 7):\n\n```\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::printf("%-24s %s\n", workloads::gemm_versions()[i].name.c_str(),
                paraver::sparkline(rows[i].x.bw, 64).c_str());
  }
  std::printf("```\n\n");
}

void phase_tables(int dim) {
  constexpr int kPeriod = 32;
  const std::vector<Row> rows = sweep(
      strf("workload = gemm\nversion = blocked, double_buffered\ndim = %d\n"
           "block = 16\nsampling_period = %d\n",
           dim, kPeriod));

  std::printf("## E5/E6 — Figs. 8/9: blocked vs double-buffered phases "
              "(%d², block 16, %d-cycle windows, thread 0)\n\n",
              dim, kPeriod);
  std::printf("| version | windows | FLOPs under memory traffic | mem-only | "
              "compute-only | phase changes | .prv fnv1a64 |\n"
              "|---|---:|---:|---:|---:|---:|---|\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Extra& x = rows[i].x;
    std::printf("| %s | %d | %.0f %% | %d | %d | %d | `%s` |\n",
                workloads::gemm_versions()[3 + i].name.c_str(),
                x.phase.windows, 100 * x.overlap, x.phase.mem_only,
                x.phase.compute_only, x.phase.phase_changes,
                x.prv_hash.c_str());
  }

  // Zoom both versions to 256 windows from where the blocked thread 0
  // first moves memory (it idles until the host starts it).
  const std::vector<double>& blocked_mem = rows[0].x.mem0;
  std::size_t anchor = 0;
  while (anchor < blocked_mem.size() && blocked_mem[anchor] <= 0) ++anchor;
  auto zoom = [anchor](const std::vector<double>& v) {
    const auto b = v.begin() + std::ptrdiff_t(std::min(anchor, v.size()));
    return std::vector<double>(b,
                               b + std::min<std::ptrdiff_t>(v.end() - b, 256));
  };
  std::printf("\nThread-0 curves from its first memory traffic (256 "
              "windows):\n\n```\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const char* tag = i == 0 ? "blocked" : "dbuffer";
    std::printf("%s mem %s\n", tag,
                paraver::sparkline(zoom(rows[i].x.mem0), 64).c_str());
    std::printf("%s fp  %s\n", tag,
                paraver::sparkline(zoom(rows[i].x.fp0), 64).c_str());
  }
  std::printf("```\n\n");
}

void pi_table() {
  const std::vector<Row> rows =
      sweep("workload = pi\nsteps = 1000000, 4000000, 10000000\n");
  const char* paper[] = {"0.146", "0.556", "1.507"};

  std::printf("## E7 — Figs. 11-13: pi scaling (§V-D, 8 threads, 16 "
              "lanes)\n\n");
  std::printf("| iterations | cycles | GFLOP/s | paper GFLOP/s | first done "
              "| last start | .prv fnv1a64 |\n"
              "|---|---:|---:|---:|---:|---:|---|\n");
  const char* steps[] = {"1 M", "4 M", "10 M"};
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::printf("| %s | %s | %.3f | %s | %s | %s | `%s` |\n", steps[i],
                with_commas(r.job.total_cycles).c_str(), r.job.gflops,
                paper[i], with_commas(r.x.first_done).c_str(),
                with_commas(r.x.last_start).c_str(), r.x.prv_hash.c_str());
  }
  // The 15e9 point is projected from the recurrence II, as in the paper
  // (f32 is numerically unstable there).
  const hls::Design d = core::compile(workloads::pi_series({}));
  workloads::PiConfig big;
  big.steps = 15000000000LL;
  std::printf("| 15·10⁹ (projected) | | %.2f | 36.84 | | | |\n\n",
              workloads::pi_peak_gflops(big, d.loop(0).rec_ii, 6,
                                        d.fmax_mhz));
}

void thread_table(int dim) {
  const std::vector<Row> rows =
      sweep(strf("workload = gemm\nversion = vectorized\ndim = %d\n"
                 "threads = 1, 2, 4, 8, 16\nprofiling = off\n",
                 dim));
  std::printf("## E8 — §V-A: thread-count saturation (vectorized GEMM "
              "%d²)\n\n",
              dim);
  std::printf("| threads | kernel cycles | speedup | stall cycles | row-hit "
              "rate |\n|---:|---:|---:|---:|---:|\n");
  const cycle_t base = rows.front().job.kernel_cycles;
  for (const Row& r : rows) {
    std::printf("| %d | %s | %.2f× | %s | %.1f %% |\n", r.job.num_threads,
                with_commas(r.job.kernel_cycles).c_str(),
                double(base) / double(r.job.kernel_cycles),
                with_commas(r.job.stall_cycles).c_str(),
                100 * r.job.row_hit_rate);
  }
  std::printf("\n");
}

/// A1/A2: one profiling knob swept over a design, against the same
/// design run unprofiled.
void profiling_sweep(const std::string& title, const std::string& design,
                     const std::string& knob,
                     const std::vector<std::string>& values) {
  const cycle_t clean =
      sweep(design + "profiling = off\n").front().job.kernel_cycles;
  const std::vector<Row> rows =
      sweep(design + knob + " = " + join(values, ", ") + "\n");
  std::printf("## %s; unprofiled %s cycles)\n\n", title.c_str(),
              with_commas(clean).c_str());
  std::printf("| %s | trace bytes | event records | flushes | perturbation "
              "| .prv fnv1a64 |\n|---:|---:|---:|---:|---:|---|\n",
              knob.c_str());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const runner::JobResult& j = rows[i].job;
    std::printf("| %s | %s | %s | %lld | %.3f %% | `%s` |\n",
                values[i].c_str(), with_commas(j.trace_bytes).c_str(),
                with_commas(std::uint64_t(j.event_records)).c_str(),
                j.flush_bursts,
                100.0 * (double(j.kernel_cycles) - double(clean)) /
                    double(clean),
                rows[i].x.prv_hash.c_str());
  }
  std::printf("\n");
}

void ablation_tables(int period_dim) {
  profiling_sweep(
      strf("A1 — sampling period (§IV-B2; vectorized GEMM %d²", period_dim),
      strf("workload = gemm\nversion = vectorized\ndim = %d\n", period_dim),
      "sampling_period", {"512", "2048", "8192", "32768", "131072"});
  profiling_sweep("A2 — trace-buffer depth (§IV-B1; naive GEMM 64²",
                  "workload = gemm\nversion = naive\ndim = 64\n",
                  "buffer_lines", {"8", "16", "64", "256", "1024"});

  std::printf("## A3 — Nymble-MT thread reordering vs plain C-slow "
              "(§III-B; vectorized GEMM 64²)\n\n");
  std::printf("| reordering | ALMs | BRAM bits | fmax (MHz) | kernel cycles "
              "|\n|---|---:|---:|---:|---:|\n");
  const char* onoff[] = {"on", "off"};
  const std::vector<Row> a3 = sweep(
      "workload = gemm\nversion = vectorized\ndim = 64\n"
      "thread_reordering = on, off\nprofiling = off\n");
  for (std::size_t i = 0; i < a3.size(); ++i) {
    const runner::JobResult& j = a3[i].job;
    std::printf("| %s | %.0f | %.0f | %.1f | %s |\n", onoff[i], j.alm,
                j.bram_bits, j.fmax_mhz, with_commas(j.kernel_cycles).c_str());
  }

  std::printf("\n## A4 — blocked GEMM tile loads: thread port vs preloader "
              "DMA (Fig. 1; 64²)\n\n");
  std::printf("| tile-load path | kernel cycles | speedup |\n"
              "|---|---:|---:|\n");
  const char* paths[] = {"thread-port loads", "preloader DMA"};
  const std::vector<Row> a4 = sweep(
      "workload = gemm\nversion = blocked, preloaded\ndim = 64\n"
      "thread_start_interval = 100\nprofiling = off\n");
  for (std::size_t i = 0; i < a4.size(); ++i) {
    const cycle_t c = a4[i].job.kernel_cycles;
    std::printf("| %s | %s | %.2f× |\n", paths[i], with_commas(c).c_str(),
                double(a4.front().job.kernel_cycles) / double(c));
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  ArgParser parser;
  parser.flag("quick", &quick,
              "shrink the GEMM sweeps to a few seconds (the golden-file "
              "sizes)");
  std::string error = parser.parse(argc, argv) ? "" : parser.error();
  if (error.empty() && !parser.positionals().empty()) {
    error = "unexpected argument " + parser.positionals().front();
  }
  if (!error.empty()) {
    std::fprintf(stderr, "hlsprof-reproduce: %s\nusage: hlsprof-reproduce "
                 "[--quick]\n%s", error.c_str(), parser.help_text().c_str());
    return 2;
  }
  const Sizes& sizes = quick ? kQuick : kPaper;
  try {
    std::printf("# HLSProf reproduction of the paper's evaluation%s\n\n",
                quick ? " (--quick sizes)" : "");
    overhead_tables();
    ladder_tables(sizes.ladder_dim);
    phase_tables(sizes.phase_dim);
    pi_table();
    thread_table(sizes.sweep_dim);
    ablation_tables(sizes.period_dim);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "hlsprof-reproduce: %s\n", e.what());
    return 1;
  }
  return 0;
}
