// Tests for the job event (src/runner/job_event): the one line that
// announces a finished job on `hlsprof-run --progress`, a shard child's
// pipe and the daemon's watch stream. It must round-trip exactly, carry
// the job's exact trace totals, survive any truncation or single-byte
// mutation without crashing or yielding an invalid event, and come out
// the same from `hlsprof-run --progress` and `hlsprof-serve --watch`.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runner/runner.hpp"
#include "serve/server.hpp"
#include "workloads/reference.hpp"
#include "workloads/simple.hpp"

namespace hlsprof {
namespace {

namespace fs = std::filesystem;

runner::JobEvent sample_event() {
  runner::JobEvent e;
  e.index = 7;
  e.status = runner::JobStatus::failed;
  e.name = "gemm dim=48, \"blocked\"\tv5";
  e.cycles = 123456789012ULL;
  e.threads = 8;
  e.state_cycles = {1, 900000000000ULL, 0, 18446744073709551615ULL};
  e.bytes = 4096000;
  e.done = 3;
  e.jobs = 16;
  return e;
}

void expect_same(const runner::JobEvent& a, const runner::JobEvent& b) {
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.threads, b.threads);
  EXPECT_EQ(a.state_cycles, b.state_cycles);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.jobs, b.jobs);
}

TEST(JobEvent, FormatsAndParsesExactly) {
  const runner::JobEvent e = sample_event();
  const std::string line = runner::format_job_event(e);
  EXPECT_EQ(line.rfind("{\"event\":\"job\"", 0), 0u) << line;
  runner::JobEvent back;
  ASSERT_TRUE(runner::parse_job_event(line, &back));
  expect_same(back, e);
  EXPECT_EQ(back.done, e.done);
  // The daemon's copy adds only the request id, and parses the same.
  const std::string with_id = runner::format_job_event(e, 42);
  EXPECT_EQ(with_id.rfind("{\"id\":42,\"event\":\"job\"", 0), 0u) << with_id;
  runner::JobEvent from_daemon;
  ASSERT_TRUE(runner::parse_job_event(with_id, &from_daemon));
  expect_same(from_daemon, e);
  // Not events: untouched output.
  runner::JobEvent untouched = e;
  EXPECT_FALSE(runner::parse_job_event("plain chatter", &untouched));
  EXPECT_FALSE(runner::parse_job_event(R"({"id":7,"ok":true})", &untouched));
  EXPECT_FALSE(runner::parse_job_event(
      R"({"event":"job","index":1,"status":"lost","name":"x","cycles":1,)"
      R"("threads":1,"state_cycles":[0,0,0,0],"bytes":0,"done":1,"jobs":1})",
      &untouched));
  expect_same(untouched, e);
}

runner::JobSpec vecadd_job(std::int64_t n) {
  runner::JobSpec spec;
  spec.name = "vecadd n=" + std::to_string(n);
  spec.kernel = [n](SplitMix64&) { return workloads::vecadd(n, 4); };
  spec.bind = [n](core::Session& s, runner::HostBuffers& bufs,
                  SplitMix64& rng) {
    s.sim().bind_f32("x", bufs.f32(workloads::random_vector(n, rng.next())));
    s.sim().bind_f32("y", bufs.f32(workloads::random_vector(n, rng.next())));
    s.sim().bind_f32("z", bufs.f32(std::size_t(n)));
  };
  return spec;
}

TEST(JobEvent, CarriesJobMetrics) {
  runner::Batch batch;
  batch.add(vecadd_job(256));
  batch.add(vecadd_job(1024));
  runner::BatchOptions opts;
  opts.workers = 2;
  std::mutex mu;
  std::map<int, runner::JobEvent> events;
  std::vector<std::size_t> done;
  opts.on_job_event = [&](const runner::JobEvent& e) {
    std::lock_guard<std::mutex> lock(mu);
    events[e.index] = e;
    done.push_back(e.done);
  };
  const runner::BatchResult result = batch.run(opts);
  ASSERT_TRUE(result.all_ok());
  ASSERT_EQ(events.size(), 2u);
  std::sort(done.begin(), done.end());
  EXPECT_EQ(done, (std::vector<std::size_t>{1, 2}));
  for (const runner::JobResult& j : result.jobs) {
    const runner::JobEvent& e = events.at(j.index);
    EXPECT_EQ(e.status, runner::JobStatus::ok);
    EXPECT_EQ(e.name, j.name);
    EXPECT_EQ(e.cycles, j.total_cycles);
    EXPECT_EQ(e.threads, 4);
    EXPECT_EQ(e.jobs, 2u);
    EXPECT_GT(e.bytes, 0u);
    // The exact state cycles are the report's shares before division.
    std::uint64_t traced = 0;
    for (const std::uint64_t c : e.state_cycles) traced += c;
    ASSERT_GT(traced, 0u);
    EXPECT_NEAR(double(e.state_cycles[1]) / double(traced), j.state_running,
                1e-9);
    EXPECT_NEAR(double(e.state_cycles[0]) / double(traced), j.state_idle,
                1e-9);
  }
}

bool valid(const runner::JobEvent& e) {
  return e.index >= 0 && e.threads >= 0 && e.threads <= 64 && e.done >= 1 &&
         e.done <= e.jobs;
}

TEST(JobEventFuzz, TruncationsAndByteMutationsNeverYieldInvalidEvents) {
  // The line arrives from another process (a shard child, a daemon), so
  // it is untrusted: every damaged form must fail cleanly or still be a
  // valid event.
  const std::string line = runner::format_job_event(sample_event(), 9);
  int parsed = 0;
  for (std::size_t n = 0; n < line.size(); ++n) {
    runner::JobEvent e;
    if (runner::parse_job_event(line.substr(0, n), &e)) {
      ++parsed;
      EXPECT_TRUE(valid(e)) << line.substr(0, n);
    }
  }
  EXPECT_EQ(parsed, 0) << "a truncated object is never complete JSON";
  for (std::size_t pos = 0; pos < line.size(); ++pos) {
    for (int byte = 0; byte < 256; ++byte) {
      std::string mutated = line;
      mutated[pos] = char(byte);
      runner::JobEvent e;
      if (runner::parse_job_event(mutated, &e)) {
        EXPECT_TRUE(valid(e)) << mutated;
      }
    }
  }
}

// ---- the same events from hlsprof-run and hlsprof-serve --------------------

std::string run_command(const std::string& cmd) {
  std::FILE* p = ::popen(cmd.c_str(), "r");
  EXPECT_NE(p, nullptr) << cmd;
  if (p == nullptr) return std::string();
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), p)) > 0) out.append(buf, n);
  EXPECT_EQ(::pclose(p), 0) << cmd;
  return out;
}

std::map<int, runner::JobEvent> parse_stream(const std::string& text) {
  std::map<int, runner::JobEvent> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    runner::JobEvent e;
    const std::string line = text.substr(pos, nl - pos);
    EXPECT_TRUE(runner::parse_job_event(line, &e)) << line;
    EXPECT_TRUE(out.emplace(e.index, e).second) << "index twice: " << line;
    pos = nl + 1;
  }
  return out;
}

TEST(JobEventE2E, RunProgressAndServeWatchAgree) {
  const fs::path dir = fs::path("/tmp") / "hlsprof_job_event_e2e";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string manifest = (dir / "sweep.manifest").string();
  std::ofstream(manifest) << "workload = vecadd\n"
                             "n = 256,512,768\n"
                             "threads = 2\n"
                             "workers = 2\n"
                             "label = job-event-e2e\n";

  const std::string from_run = run_command(
      std::string(HLSPROF_RUN_BIN) + " " + manifest +
      " --canonical --quiet --progress");

  serve::ServerOptions options;
  options.socket_path = (dir / "d.sock").string();
  options.workers = 2;
  serve::Server server(options);
  std::thread serving([&] { server.serve(); });
  // Events go to stderr; the report (stdout) is dropped.
  const std::string from_serve = run_command(
      std::string(HLSPROF_SERVE_BIN) + " --socket=" + options.socket_path +
      " --submit=" + manifest + " --watch --quiet 2>&1 >/dev/null");
  server.request_drain();
  serving.join();

  const auto run_events = parse_stream(from_run);
  const auto serve_events = parse_stream(from_serve);
  ASSERT_EQ(run_events.size(), 3u) << from_run;
  ASSERT_EQ(serve_events.size(), 3u) << from_serve;
  for (const auto& [index, e] : run_events) {
    SCOPED_TRACE(index);
    expect_same(serve_events.at(index), e);
    EXPECT_GT(e.state_cycles[1], 0u);
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace hlsprof
