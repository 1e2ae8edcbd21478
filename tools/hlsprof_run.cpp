// hlsprof-run — execute a sweep manifest through the batch runner.
//
//   hlsprof-run sweep.manifest [--workers=N] [--out=PREFIX] [--seed=S]
//                              [--cache-dir=DIR] [--cache-max-bytes=N]
//                              [--approx-trace]
//                              [--canonical] [--json] [--quiet] [--progress]
//                              [--live[=state|metrics]] [--no-color]
//                              [--telemetry-out=FILE] [--chrome-trace=FILE]
//                              [--version] [--help]
//
//   --workers=N          override the manifest's worker count (0 = one per
//                        core; negative is a usage error)
//   --out=PREFIX         write PREFIX.json + PREFIX.csv (overrides manifest
//                        `out`)
//   --seed=S             override the manifest's batch seed (>= 0)
//   --cache-dir=DIR      persist compiled designs in DIR (created if
//                        missing) so repeated runs skip recompilation;
//                        default off. See docs/CACHING.md.
//   --cache-max-bytes=N  LRU size cap for --cache-dir (evicted when the
//                        cache is opened); 0 = unbounded, negative is a
//                        usage error
//   --approx-trace       approximate fast-forward mode (like manifest key
//                        `approx_trace = on`): steady-state memory-bound
//                        loop phases are jumped analytically, functional
//                        verification is disabled, and trace records over
//                        skipped spans are synthesized aggregates. See
//                        docs/PERF.md for the tolerance contract.
//   --canonical          deterministic report: omit wall-clock + per-job
//                        cache_hit
//   --json               print the JSON report to stdout
//   --quiet              suppress the summary table
//   --progress           print one JSON job event per finished job on
//                        stdout as it completes (runner/job_event.hpp)
//   --live[=MODE]        live display on stderr while the batch runs:
//                        `state` (default) draws the in-place ASCII thread
//                        timeline of the running job, `metrics` a one-line
//                        totals ticker. Auto-disabled when stderr is not a
//                        TTY. Canonical report and trace bytes are identical
//                        with it on or off. See docs/LIVE.md.
//   --no-color           disable ANSI colors in the live display
//                        (NO_COLOR in the environment does the same)
//   --telemetry-out=FILE enable host telemetry; write the metrics snapshot
//                        JSON (schema "hlsprof-telemetry") to FILE
//   --chrome-trace=FILE  enable host telemetry; write a Chrome trace-event
//                        JSON (open in Perfetto / chrome://tracing)
//   --version            print the build stamp and exit
//
// Telemetry is a sidecar: canonical report bytes are identical with it on
// or off. With --out and telemetry enabled, PREFIX.telemetry.json is also
// written next to the report.
//
// Exit status: 0 if every job finished ok, 1 if any job failed or timed
// out, 2 on usage/manifest errors (including unknown or malformed flags).
#include <unistd.h>

#include <cstdio>
#include <exception>
#include <limits>
#include <memory>
#include <string>

#include "common/argparse.hpp"
#include "common/build_info.hpp"
#include "live/reporter.hpp"
#include "paraver/ascii.hpp"
#include "runner/runner.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"

using namespace hlsprof;

namespace {

int usage(const ArgParser& parser, std::FILE* to) {
  std::fputs("usage: hlsprof-run <manifest> [flags]\n", to);
  std::fputs(parser.help_text().c_str(), to);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_override;
  std::string cache_dir;
  std::string telemetry_out;
  std::string chrome_trace;
  // LLONG_MIN = not given; an explicit negative value is rejected.
  constexpr long long kUnset = std::numeric_limits<long long>::min();
  long long workers_override = kUnset;
  long long seed_override = kUnset;
  long long cache_max_bytes = kUnset;
  std::string live_value = "state";
  bool approx_trace = false;
  bool canonical = false;
  bool print_json = false;
  bool quiet = false;
  bool progress = false;
  bool live_flag = false;
  bool no_color = false;
  bool version = false;
  bool help = false;

  ArgParser parser;
  parser
      .option_int("workers", &workers_override,
                  "override the manifest's worker count (0 = one per core)")
      .option("out", &out_override,
              "write VALUE.json + VALUE.csv (overrides manifest `out`)")
      .option_int("seed", &seed_override, "override the manifest's batch seed")
      .option("cache-dir", &cache_dir,
              "persist compiled designs in VALUE so repeated runs skip "
              "recompilation (default off)")
      .option_int("cache-max-bytes", &cache_max_bytes,
                  "LRU size cap for --cache-dir, evicted on open "
                  "(0 = unbounded)")
      .flag("approx-trace", &approx_trace,
            "approximate fast-forward mode: jump steady memory-bound loop "
            "phases analytically (disables functional verification)")
      .flag("canonical", &canonical,
            "deterministic report: omit wall-clock + per-job cache_hit")
      .flag("json", &print_json, "print the JSON report to stdout")
      .flag("quiet", &quiet, "suppress the summary table")
      .flag("progress", &progress,
            "print one JSON job event per finished job on stdout")
      .option_optional("live", &live_value, &live_flag,
                       "live stderr display: state (timeline, default) or "
                       "metrics (ticker); auto-off when stderr is no TTY")
      .flag("no-color", &no_color, "disable ANSI colors in the live display")
      .option("telemetry-out", &telemetry_out,
              "enable telemetry; write the metrics snapshot JSON here")
      .option("chrome-trace", &chrome_trace,
              "enable telemetry; write Chrome trace-event JSON here")
      .flag("version", &version, "print the build stamp and exit")
      .flag("help", &help, "show this help");

  if (!parser.parse(argc, argv)) {
    std::fprintf(stderr, "hlsprof-run: %s\n", parser.error().c_str());
    return usage(parser, stderr);
  }
  if (help) {
    usage(parser, stdout);
    return 0;
  }
  if (version) {
    std::printf("%s\n", build_info_string().c_str());
    return 0;
  }
  if (parser.positionals().size() != 1) {
    std::fprintf(stderr, "hlsprof-run: expected exactly one manifest path\n");
    return usage(parser, stderr);
  }
  const std::string manifest_path = parser.positionals().front();
  for (const auto& [flag, value] :
       {std::pair{"--workers", workers_override},
        std::pair{"--seed", seed_override},
        std::pair{"--cache-max-bytes", cache_max_bytes}}) {
    if (value < 0 && value != kUnset) {
      std::fprintf(stderr, "hlsprof-run: %s must be >= 0\n", flag);
      return usage(parser, stderr);
    }
  }

  live::LiveMode live_mode = live::LiveMode::off;
  if (live_flag && !live::parse_live_mode(live_value, &live_mode)) {
    std::fprintf(stderr, "hlsprof-run: --live must be 'state' or 'metrics'\n");
    return usage(parser, stderr);
  }
  // The display needs a terminal.
  const bool live_tty = ::isatty(::fileno(stderr)) != 0;
  const bool live_display = live_mode != live::LiveMode::off && live_tty &&
                            !quiet;
  const bool live_color =
      !no_color && paraver::color_enabled_for(stderr);

  auto& telemetry_reg = telemetry::Registry::global();
  const bool telemetry_on = !telemetry_out.empty() || !chrome_trace.empty();
  if (telemetry_on) telemetry_reg.enable(true);

  runner::ManifestRun run;
  try {
    run = runner::load_manifest(manifest_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hlsprof-run: %s\n", e.what());
    return 2;
  }

  if (workers_override >= 0) run.options.workers = int(workers_override);
  if (seed_override >= 0) run.options.seed = std::uint64_t(seed_override);
  if (approx_trace) runner::apply_approx_trace(run);
  if (!out_override.empty()) run.out_prefix = out_override;
  if (!cache_dir.empty()) run.options.cache_dir = cache_dir;
  if (cache_max_bytes >= 0) {
    run.options.cache_max_bytes = std::uint64_t(cache_max_bytes);
  }
  // Live display: reads each job's canonical timeline fold and its job
  // event — the report and trace bytes are identical with it on or off.
  std::unique_ptr<live::BatchLiveReporter> reporter;
  if (live_display) {
    live::ReporterOptions lopts;
    lopts.mode = live_mode;
    lopts.display = stderr;
    lopts.color = live_color;
    reporter = std::make_unique<live::BatchLiveReporter>(lopts);
    if (live_mode == live::LiveMode::state) {
      live::BatchLiveReporter* r = reporter.get();
      run.options.on_trace = [r](int index, const std::string& name,
                                 const trace::TimedTraceBuilder& b) {
        r->on_trace(index, name, b);
      };
    }
  }
  if (progress || reporter) {
    live::BatchLiveReporter* r = reporter.get();
    run.options.on_job_event = [progress, r](const runner::JobEvent& e) {
      if (progress) {
        // One flushed line per job so a piped consumer sees completions
        // as they happen.
        std::fputs((runner::format_job_event(e) + "\n").c_str(), stdout);
        std::fflush(stdout);
      }
      if (r != nullptr) r->on_job_event(e);
    };
  }

  runner::BatchResult result;
  try {
    result = run.batch.run(run.options);
  } catch (const std::exception& e) {
    // Runner-internal failure (e.g. the cache directory cannot be
    // created) — a configuration error, unlike per-job failures, which
    // land in the report.
    std::fprintf(stderr, "hlsprof-run: %s\n", e.what());
    return 2;
  }
  if (reporter) reporter->finish();
  runner::ReportOptions ropts;
  ropts.canonical = canonical;
  ropts.label = run.label;
  const std::string& out_prefix = run.out_prefix;

  if (!quiet) {
    std::fputs(runner::summary_table(result).c_str(), stdout);
    std::printf("jobs: %zu ok=%d failed=%d timed_out=%d | cache %lld hits / "
                "%lld misses | %d workers, %.0f ms\n",
                result.jobs.size(), result.count(runner::JobStatus::ok),
                result.count(runner::JobStatus::failed),
                result.count(runner::JobStatus::timed_out), result.cache_hits,
                result.cache_misses, result.workers, result.wall_ms);
  }
  if (print_json) {
    std::fputs(runner::report_json(result, ropts).c_str(), stdout);
    std::fputc('\n', stdout);
  }
  if (!out_prefix.empty()) {
    try {
      const std::string path =
          runner::write_report(result, out_prefix, ropts);
      if (!quiet)
        std::printf("report written to %s (+ .csv)\n", path.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "hlsprof-run: %s\n", e.what());
      return 2;
    }
  }

  if (telemetry_on) {
    try {
      const telemetry::Snapshot snap = telemetry_reg.snapshot();
      if (!telemetry_out.empty()) {
        telemetry::write_text_file(telemetry_out,
                                   telemetry::snapshot_json(snap) + "\n");
        if (!quiet)
          std::printf("telemetry snapshot written to %s\n",
                      telemetry_out.c_str());
      }
      if (!chrome_trace.empty()) {
        telemetry::write_text_file(chrome_trace,
                                   telemetry::chrome_trace_json(snap) + "\n");
        if (!quiet)
          std::printf("chrome trace written to %s (open in Perfetto)\n",
                      chrome_trace.c_str());
      }
      // Non-canonical sidecar next to the batch report, so archived runs
      // keep their host metrics without touching the canonical bytes.
      if (!out_prefix.empty()) {
        telemetry::write_text_file(out_prefix + ".telemetry.json",
                                   telemetry::snapshot_json(snap) + "\n");
      }
      if (!quiet) std::fputs(telemetry::summary_text(snap).c_str(), stdout);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "hlsprof-run: %s\n", e.what());
      return 2;
    }
  }
  return result.all_ok() ? 0 : 1;
}
