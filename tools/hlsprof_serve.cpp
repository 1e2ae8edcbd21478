// hlsprof-serve — long-lived profiling daemon plus its command-line
// client. One binary, two modes:
//
// Daemon (default):
//   hlsprof-serve --socket=PATH [--workers=N] [--dispatchers=N]
//                 [--queue-capacity=N] [--cache-dir=DIR]
//                 [--cache-max-bytes=N]
//                 [--telemetry-out=FILE] [--quiet]
//
//   Listens on a Unix-domain socket, executes manifest submissions from
//   concurrent clients on one resident worker pool and one persistent
//   design cache, and answers `metrics` requests with the live telemetry
//   snapshot. SIGTERM/SIGINT (or a `shutdown` request) drains: admission
//   closes, every admitted job finishes and is answered, the telemetry
//   sidecar (--telemetry-out) is flushed, the socket file is removed,
//   and the process exits 0. See docs/SERVING.md.
//
// Client (any of --submit/--metrics/--ping/--shutdown selects it):
//   hlsprof-serve --socket=PATH --submit=MANIFEST [--report-out=FILE]
//                 [--watch] [--quiet]
//   hlsprof-serve --socket=PATH --metrics [--json]
//   hlsprof-serve --socket=PATH --ping
//   hlsprof-serve --socket=PATH --shutdown
//
//   --submit sends the manifest text and prints (or writes, with
//   --report-out) the returned canonical report — byte-identical to
//   `hlsprof-run MANIFEST --canonical --json` for the same manifest.
//   With --watch the daemon streams one job event per finished job (the
//   JSON line `hlsprof-run --progress` prints, plus the request "id") and
//   the client copies each line to stderr as it arrives, even under
//   --quiet; the report bytes on stdout are unchanged.
//   --metrics prints a human-readable aligned table; --json switches to
//   the raw "hlsprof-telemetry" snapshot JSON.
//
// Exit status: 0 ok; 1 job failures or a connection dropped mid-request;
// 2 usage errors; 3 the daemon rejected the request (queue_full /
// draining — the structured error is printed to stderr);
// 4 cannot connect to the daemon at all (missing socket file or nothing
// listening on it — the message names the socket path), so scripts can
// tell "no daemon" apart from "daemon said no".
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>

#include "common/argparse.hpp"
#include "common/build_info.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"

using namespace hlsprof;

namespace {

int usage(const ArgParser& parser, std::FILE* to) {
  std::fputs("usage: hlsprof-serve --socket=PATH [flags]\n", to);
  std::fputs(parser.help_text().c_str(), to);
  return 2;
}

/// The serving loop's drain trigger, reachable from the signal handler.
int g_drain_fd = -1;

void on_terminate(int) {
  if (g_drain_fd >= 0) {
    const char byte = 1;
    (void)!::write(g_drain_fd, &byte, 1);
  }
}

int run_daemon(serve::ServerOptions options, const std::string& telemetry_out,
               bool quiet) {
  serve::Server server(std::move(options));
  g_drain_fd = server.drain_fd();
  std::signal(SIGTERM, on_terminate);
  std::signal(SIGINT, on_terminate);
  if (!quiet) {
    std::fprintf(stderr, "hlsprof-serve: listening on %s\n",
                 server.socket_path().c_str());
  }
  server.serve();
  g_drain_fd = -1;
  if (!telemetry_out.empty()) {
    telemetry::write_text_file(
        telemetry_out,
        telemetry::snapshot_json(telemetry::Registry::global()) + "\n");
  }
  if (!quiet) {
    const auto s = server.admission().stats();
    std::fprintf(stderr,
                 "hlsprof-serve: drained (admitted %llu, started %llu, "
                 "rejected %llu)\n",
                 (unsigned long long)s.admitted,
                 (unsigned long long)s.started,
                 (unsigned long long)(s.rejected_full + s.rejected_draining));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::string submit_path;
  std::string report_out;
  std::string cache_dir;
  std::string telemetry_out;
  long long workers = 0;
  long long dispatchers = 2;
  long long queue_capacity = 64;
  long long cache_max_bytes = 0;
  bool metrics = false;
  bool metrics_json = false;
  bool watch = false;
  bool ping = false;
  bool shutdown = false;
  bool quiet = false;
  bool version = false;
  bool help = false;

  ArgParser parser;
  parser
      .option("socket", &socket_path, "Unix-domain socket path (required)")
      .option_int("workers", &workers,
                  "resident pool size (0 = one per core)")
      .option_int("dispatchers", &dispatchers,
                  "requests executed concurrently (default 2)")
      .option_int("queue-capacity", &queue_capacity,
                  "max requests waiting for a dispatcher (default 64)")
      .option("cache-dir", &cache_dir,
              "persistent design-cache directory (default off)")
      .option_int("cache-max-bytes", &cache_max_bytes,
                  "LRU size cap for --cache-dir (0 = unbounded)")
      .option("telemetry-out", &telemetry_out,
              "write the final metrics snapshot here on drain")
      .option("submit", &submit_path,
              "client mode: submit this manifest file")
      .option("report-out", &report_out,
              "client mode: write the returned report here instead of stdout")
      .flag("watch", &watch,
            "client mode: copy one job-event line per finished job to "
            "stderr while the submission runs")
      .flag("metrics", &metrics, "client mode: fetch the telemetry snapshot")
      .flag("json", &metrics_json,
            "client mode: print --metrics as raw snapshot JSON instead of "
            "the aligned table")
      .flag("ping", &ping, "client mode: health-check the daemon")
      .flag("shutdown", &shutdown, "client mode: ask the daemon to drain")
      .flag("quiet", &quiet, "suppress progress chatter")
      .flag("version", &version, "print the build stamp and exit")
      .flag("help", &help, "show this help");

  if (!parser.parse(argc, argv)) {
    std::fprintf(stderr, "hlsprof-serve: %s\n", parser.error().c_str());
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
  if (!parser.positionals().empty()) {
    std::fprintf(stderr, "hlsprof-serve: unexpected positional argument\n");
    return usage(parser, stderr);
  }
  if (socket_path.empty()) {
    std::fprintf(stderr, "hlsprof-serve: --socket is required\n");
    return usage(parser, stderr);
  }

  for (const auto& [flag, value, min] :
       {std::tuple{"--workers", workers, 0LL},
        std::tuple{"--dispatchers", dispatchers, 1LL},
        std::tuple{"--queue-capacity", queue_capacity, 0LL},
        std::tuple{"--cache-max-bytes", cache_max_bytes, 0LL}}) {
    if (value < min) {
      std::fprintf(stderr, "hlsprof-serve: %s must be >= %lld\n", flag, min);
      return usage(parser, stderr);
    }
  }

  const bool client_mode =
      !submit_path.empty() || metrics || ping || shutdown;
  try {
    if (!client_mode) {
      serve::ServerOptions options;
      options.socket_path = socket_path;
      options.workers = int(workers);
      options.dispatchers = int(dispatchers);
      options.queue_capacity = std::size_t(queue_capacity);
      options.cache_dir = cache_dir;
      options.cache_max_bytes = std::uint64_t(cache_max_bytes);
      return run_daemon(std::move(options), telemetry_out, quiet);
    }

    serve::Client client(socket_path);
    if (ping) {
      const serve::Response r = client.ping();
      if (!quiet) std::printf("pong: %s\n", r.build.c_str());
      return r.ok ? 0 : 1;
    }
    if (metrics) {
      const serve::Response r = client.metrics();
      if (!r.ok) {
        std::fprintf(stderr, "hlsprof-serve: %s: %s\n", r.error.c_str(),
                     r.message.c_str());
        return 3;
      }
      if (metrics_json) {
        std::fputs(r.metrics.c_str(), stdout);
        std::fputc('\n', stdout);
      } else {
        std::fputs(telemetry::metrics_table(r.metrics).c_str(), stdout);
      }
      return 0;
    }
    if (shutdown) {
      const serve::Response r = client.shutdown();
      if (!quiet && r.draining) {
        std::fprintf(stderr, "hlsprof-serve: daemon is draining\n");
      }
      return r.ok ? 0 : 1;
    }

    std::ifstream f(submit_path);
    if (!f.good()) {
      std::fprintf(stderr, "hlsprof-serve: cannot open manifest: %s\n",
                   submit_path.c_str());
      return 2;
    }
    std::ostringstream ss;
    ss << f.rdbuf();
    serve::Client::EventFn on_event;
    if (watch) {
      on_event = [](const std::string& line, const runner::JobEvent&) {
        std::fprintf(stderr, "%s\n", line.c_str());
      };
    }
    const serve::Response r = client.submit(ss.str(), on_event);
    if (!r.ok) {
      std::fprintf(stderr, "hlsprof-serve: rejected (%s): %s\n",
                   r.error.c_str(), r.message.c_str());
      return 3;
    }
    if (!report_out.empty()) {
      telemetry::write_text_file(report_out, r.report + "\n");
      if (!quiet) {
        std::fprintf(stderr, "report written to %s\n", report_out.c_str());
      }
    } else {
      std::fputs(r.report.c_str(), stdout);
      std::fputc('\n', stdout);
    }
    if (!quiet) {
      std::fprintf(stderr, "label=%s jobs=%d ok=%d\n", r.label.c_str(),
                   r.jobs, r.ok_jobs);
    }
    return r.ok_jobs == r.jobs ? 0 : 1;
  } catch (const serve::ConnectError& e) {
    std::fprintf(stderr, "hlsprof-serve: %s\n", e.what());
    return 4;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hlsprof-serve: %s\n", e.what());
    return 1;
  }
}
