// Tests for the serving subsystem (src/serve): admission-queue policy
// (FIFO order, bounded-queue rejection, drain semantics), wire-protocol
// round-trips (manifest and report bytes travel exactly) and mutation
// fuzz, and the daemon end-to-end over a real Unix socket —
// submits byte-identical to a direct `hlsprof-run` report, live metrics,
// structured queue-full rejection, and graceful drain.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "runner/manifest.hpp"
#include "runner/report.hpp"
#include "serve/admission.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "telemetry/telemetry.hpp"

namespace hlsprof {
namespace {

namespace fs = std::filesystem;

using serve::AdmissionQueue;
using serve::Reject;

// ---- admission policy ------------------------------------------------------

TEST(ServeAdmission, PopsInSubmissionOrder) {
  AdmissionQueue q(64);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(q.submit([&order, i] { order.push_back(i); }), Reject::none);
  }

  AdmissionQueue::Request out;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.pop(&out));
    out();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ServeAdmission, QueueFullRejectsExplicitly) {
  AdmissionQueue q(2);
  EXPECT_EQ(q.submit([] {}), Reject::none);
  EXPECT_EQ(q.submit([] {}), Reject::none);
  EXPECT_EQ(q.submit([] {}), Reject::queue_full);

  // Popping frees a slot (capacity bounds *waiting* requests).
  AdmissionQueue::Request out;
  ASSERT_TRUE(q.pop(&out));
  EXPECT_EQ(q.submit([] {}), Reject::none);

  const auto s = q.stats();
  EXPECT_EQ(s.submitted, 4u);
  EXPECT_EQ(s.admitted, 3u);
  EXPECT_EQ(s.rejected_full, 1u);
}

TEST(ServeAdmission, DrainRejectsNewAndDrainsRemainder) {
  AdmissionQueue q(64);
  ASSERT_EQ(q.submit([] {}), Reject::none);
  ASSERT_EQ(q.submit([] {}), Reject::none);
  q.drain();
  EXPECT_TRUE(q.draining());
  EXPECT_EQ(q.submit([] {}), Reject::draining);

  // Everything admitted before the drain is still served...
  AdmissionQueue::Request out;
  EXPECT_TRUE(q.pop(&out));
  EXPECT_TRUE(q.pop(&out));
  // ...then pop() reports completion instead of blocking.
  EXPECT_FALSE(q.pop(&out));

  const auto s = q.stats();
  EXPECT_EQ(s.rejected_draining, 1u);
  EXPECT_EQ(s.started, 2u);
  EXPECT_EQ(s.queued, 0u);
}

TEST(ServeAdmission, DrainWakesBlockedConsumer) {
  AdmissionQueue q(64);
  std::atomic<int> result{-1};
  std::thread consumer([&] {
    AdmissionQueue::Request out;
    result = q.pop(&out) ? 1 : 0;
  });
  q.drain();
  consumer.join();
  EXPECT_EQ(result.load(), 0);
}

// ---- wire protocol ---------------------------------------------------------

TEST(ServeProtocol, SubmitRequestRoundTripsManifestBytes) {
  serve::Request r;
  r.op = serve::Request::Op::submit;
  r.id = 42;
  r.manifest = "workload = pi\nsteps = 100\n# \xc3\xa9\t\"quoted\"\n";

  const std::string line = serve::request_line(r);
  EXPECT_EQ(line.find('\n'), std::string::npos)
      << "requests must be single lines";
  const serve::Request back = serve::parse_request(line);
  EXPECT_EQ(back.op, serve::Request::Op::submit);
  EXPECT_EQ(back.id, 42u);
  EXPECT_FALSE(back.watch);
  EXPECT_EQ(back.manifest, r.manifest);

  // Older clients also sent "client" and "priority"; such a line is
  // still a valid submit and its manifest bytes arrive unchanged.
  const serve::Request old = serve::parse_request(
      R"({"op":"submit","id":42,"client":"ci-\"3\"","priority":-2,)"
      R"("manifest":"workload = pi\nsteps = 100\n# )"
      "\xc3\xa9"
      R"(\t\"quoted\"\n"})");
  EXPECT_EQ(old.op, serve::Request::Op::submit);
  EXPECT_EQ(old.id, 42u);
  EXPECT_EQ(old.manifest, r.manifest);
}

TEST(ServeProtocol, SubmitOkResponseRoundTripsReportBytes) {
  const std::string report =
      "{\"schema\":\"hlsprof-batch-report\",\"label\":\"x\\ny\"}";
  const std::string telemetry = "{\"schema\":\"hlsprof-telemetry\"}";
  const std::string line =
      serve::submit_ok_response(7, "sweep", 3, 2, report, telemetry);
  EXPECT_EQ(line.find('\n'), std::string::npos);

  const serve::Response r = serve::parse_response(line);
  EXPECT_EQ(r.id, 7u);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.label, "sweep");
  EXPECT_EQ(r.jobs, 3);
  EXPECT_EQ(r.ok_jobs, 2);
  EXPECT_EQ(r.report, report);
  EXPECT_EQ(r.telemetry, telemetry);
}

TEST(ServeProtocol, ErrorAndInlineResponsesRoundTrip) {
  serve::Response e =
      serve::parse_response(serve::error_response(9, "queue_full", "cap 64"));
  EXPECT_EQ(e.id, 9u);
  EXPECT_FALSE(e.ok);
  EXPECT_EQ(e.error, "queue_full");
  EXPECT_EQ(e.message, "cap 64");

  serve::Response m =
      serve::parse_response(serve::metrics_response(1, "{\"a\":1}"));
  EXPECT_TRUE(m.ok);
  EXPECT_EQ(m.metrics, "{\"a\":1}");

  serve::Response p =
      serve::parse_response(serve::ping_response(2, "hlsprof 1.0"));
  EXPECT_TRUE(p.ok);
  EXPECT_EQ(p.build, "hlsprof 1.0");

  serve::Response s = serve::parse_response(serve::shutdown_response(3));
  EXPECT_TRUE(s.ok);
  EXPECT_TRUE(s.draining);
}

TEST(ServeProtocol, MalformedRequestsThrow) {
  EXPECT_THROW(serve::parse_request("not json"), Error);
  EXPECT_THROW(serve::parse_request("{\"op\":\"launch\"}"), Error);
  EXPECT_THROW(serve::parse_request("{\"op\":\"submit\"}"), Error)
      << "submit without a manifest";
  EXPECT_THROW(serve::parse_request("{\"op\":42}"), Error);
  EXPECT_THROW(serve::parse_request("[]"), Error);
}

TEST(ServeProtocolFuzz, TruncationsAndByteMutationsThrowOrParse) {
  // Request and response lines cross a socket, so they are untrusted:
  // every damaged form must fail with hlsprof::Error or parse, never
  // crash.
  serve::Request watch;
  watch.op = serve::Request::Op::submit;
  watch.id = 7;
  watch.watch = true;
  watch.manifest = "workload = pi\nsteps = 100\n";
  const std::string request = serve::request_line(watch);
  ASSERT_TRUE(serve::parse_request(request).watch);
  const std::string response = serve::submit_ok_response(
      7, "pi", 1, 1, "{\"schema\":\"hlsprof-batch-report\"}",
      "{\"schema\":\"hlsprof-telemetry\"}");
  ASSERT_TRUE(serve::parse_response(response).ok);

  const auto fuzz = [](const std::string& line, const auto& parse) {
    const auto try_parse = [&](const std::string& text) {
      try {
        parse(text);
      } catch (const Error&) {
      }
    };
    for (std::size_t n = 0; n < line.size(); ++n) {
      try_parse(line.substr(0, n));
    }
    for (std::size_t pos = 0; pos < line.size(); ++pos) {
      for (int byte = 0; byte < 256; ++byte) {
        std::string mutated = line;
        mutated[pos] = char(byte);
        try_parse(mutated);
      }
    }
  };
  fuzz(request, [](const std::string& t) { serve::parse_request(t); });
  fuzz(response, [](const std::string& t) { serve::parse_response(t); });
}

// ---- daemon end-to-end -----------------------------------------------------

/// Short socket path: sun_path caps at ~107 bytes and gtest temp dirs can
/// be long, so sockets live under /tmp directly.
std::string fresh_socket_dir(const std::string& name) {
  const fs::path dir = fs::path("/tmp") / ("hlsprof_serve_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

const char* kManifest =
    "workload = vecadd\n"
    "n = 256\n"
    "threads = 2\n"
    "verify = on\n"
    "workers = 2\n"
    "label = serve-e2e\n";

/// What the daemon must reproduce byte-for-byte: a fresh direct run of
/// the same manifest, canonical JSON report.
std::string direct_report(const std::string& text) {
  runner::ManifestRun run = runner::parse_manifest(text);
  runner::BatchResult result = run.batch.run(run.options);
  runner::ReportOptions ro;
  ro.canonical = true;
  ro.label = run.label;
  return runner::report_json(result, ro);
}

TEST(ServeServer, MissingSocketThrowsConnectErrorNamingThePath) {
  const std::string sock =
      (fs::path(testing::TempDir()) / "hlsprof_no_such_daemon.sock").string();
  fs::remove(sock);
  try {
    serve::Client client(sock);
    FAIL() << "connect to a nonexistent socket must throw";
  } catch (const serve::ConnectError& e) {
    EXPECT_EQ(e.socket_path(), sock);
    EXPECT_EQ(e.saved_errno(), ENOENT);
    const std::string msg = e.what();
    EXPECT_NE(msg.find(sock), std::string::npos)
        << "message must name the socket path: " << msg;
    EXPECT_NE(msg.find("hlsprof-serve"), std::string::npos)
        << "message must say what to start: " << msg;
  }
}

TEST(ServeServer, StaleSocketFileThrowsConnectRefused) {
  // A socket file with no listener behind it (daemon died) is
  // ECONNREFUSED, reported distinctly from a missing file.
  const std::string sock =
      (fs::path(testing::TempDir()) / "hlsprof_stale_daemon.sock").string();
  fs::remove(sock);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(sock.size(), sizeof(addr.sun_path));
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", sock.c_str());
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ::close(fd);  // bound but never listened: file exists, nobody home

  try {
    serve::Client client(sock);
    FAIL() << "connect to a dead socket file must throw";
  } catch (const serve::ConnectError& e) {
    EXPECT_EQ(e.socket_path(), sock);
    EXPECT_EQ(e.saved_errno(), ECONNREFUSED);
    EXPECT_NE(std::string(e.what()).find("stale"), std::string::npos)
        << e.what();
  }
  fs::remove(sock);
}

TEST(ServeServer, LifecycleSubmitMetricsShutdown) {
  const std::string dir = fresh_socket_dir("lifecycle");
  // The reference run happens in this same process; do it before the
  // server exists (and zero the global registry) so the daemon's metrics
  // reflect only the daemon's own work.
  const std::string want = direct_report(kManifest);
  telemetry::Registry::global().reset_values();

  serve::ServerOptions options;
  options.socket_path = dir + "/d.sock";
  options.workers = 2;
  options.dispatchers = 2;
  options.cache_dir = dir + "/cache";
  serve::Server server(options);
  std::thread serving([&] { server.serve(); });

  {
    serve::Client client(options.socket_path);
    const serve::Response pong = client.ping(5);
    EXPECT_TRUE(pong.ok);
    EXPECT_EQ(pong.id, 5u);
    EXPECT_NE(pong.build.find("hlsprof"), std::string::npos);

    const serve::Response first = client.submit(kManifest, {}, 1);
    ASSERT_TRUE(first.ok) << first.error << ": " << first.message;
    EXPECT_EQ(first.label, "serve-e2e");
    EXPECT_EQ(first.jobs, 1);
    EXPECT_EQ(first.ok_jobs, 1);
    EXPECT_EQ(first.report, want) << "daemon report must be byte-identical "
                                     "to hlsprof-run's canonical output";
    EXPECT_NE(first.telemetry.find("hlsprof-telemetry"), std::string::npos);

    // Warm resubmit: same bytes again (the shared cache must not leak
    // into the canonical report).
    const serve::Response warm = client.submit(kManifest, {}, 2);
    ASSERT_TRUE(warm.ok);
    EXPECT_EQ(warm.report, want);

    const serve::Response metrics = client.metrics(3);
    ASSERT_TRUE(metrics.ok);
    EXPECT_NE(metrics.metrics.find("\"hlsprof-telemetry\""),
              std::string::npos);
    // One unique design across both submits: single-flight + the shared
    // cache mean exactly one compile ever happened.
    EXPECT_NE(metrics.metrics.find("\"hls.compiles\":{\"value\":1}"),
              std::string::npos)
        << metrics.metrics;

    const serve::Response bye = client.shutdown(4);
    EXPECT_TRUE(bye.ok);
    EXPECT_TRUE(bye.draining);
  }

  serving.join();
  EXPECT_FALSE(fs::exists(options.socket_path))
      << "drain must remove the socket file";
  fs::remove_all(dir);
}

TEST(ServeServer, ConcurrentClientsGetByteIdenticalReports) {
  const std::string dir = fresh_socket_dir("concurrent");
  serve::ServerOptions options;
  options.socket_path = dir + "/d.sock";
  options.workers = 2;
  options.dispatchers = 3;
  serve::Server server(options);
  std::thread serving([&] { server.serve(); });

  const std::string want = direct_report(kManifest);
  std::vector<std::string> got(3);
  std::vector<std::thread> clients;
  for (int i = 0; i < 3; ++i) {
    clients.emplace_back([&, i] {
      serve::Client client(options.socket_path);
      const serve::Response r = client.submit(kManifest);
      if (r.ok) got[std::size_t(i)] = r.report;
    });
  }
  for (auto& t : clients) t.join();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(got[std::size_t(i)], want) << "client " << i;
  }

  server.request_drain();
  serving.join();
  fs::remove_all(dir);
}

TEST(ServeServer, QueueFullIsAStructuredErrorNotADrop) {
  const std::string dir = fresh_socket_dir("full");
  serve::ServerOptions options;
  options.socket_path = dir + "/d.sock";
  options.workers = 1;
  options.dispatchers = 1;
  // Nothing may wait: every submit is rejected before it reaches the
  // pool, deterministically, with the machine-readable reason.
  options.queue_capacity = 0;
  serve::Server server(options);
  std::thread serving([&] { server.serve(); });

  {
    serve::Client client(options.socket_path);
    const serve::Response r = client.submit(kManifest, {}, 11);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.id, 11u);
    EXPECT_EQ(r.error, "queue_full");
    EXPECT_FALSE(r.message.empty());
    // The connection survives a rejection: an inline op still answers.
    EXPECT_TRUE(client.ping().ok);
  }

  server.request_drain();
  serving.join();
  fs::remove_all(dir);
}

TEST(ServeServer, BadManifestAnswersManifestError) {
  const std::string dir = fresh_socket_dir("badmanifest");
  serve::ServerOptions options;
  options.socket_path = dir + "/d.sock";
  options.workers = 1;
  serve::Server server(options);
  std::thread serving([&] { server.serve(); });

  {
    serve::Client client(options.socket_path);
    const serve::Response r =
        client.submit("workload = blastoff\n", {}, 1);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error, "manifest_error");
    EXPECT_NE(r.message.find("blastoff"), std::string::npos);
  }

  server.request_drain();
  serving.join();
  fs::remove_all(dir);
}

}  // namespace
}  // namespace hlsprof
