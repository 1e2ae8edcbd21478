// Tests for the job event (src/runner/job_event): the one line that
// announces a finished job on `hlsprof-run --progress`. Its bytes are
// pinned, it must read back exactly through json_parse, carry the job's
// exact trace totals, and agree with the report of the same run.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "cli_helpers.hpp"
#include "json_reader.hpp"
#include "runner/runner.hpp"
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

TEST(JobEvent, FormatsAndParsesExactly) {
  const runner::JobEvent e = sample_event();
  const std::string line = runner::format_job_event(e);
  // The --progress line, byte for byte.
  EXPECT_EQ(line,
            R"({"event":"job","index":7,"status":"failed",)"
            R"("name":"gemm dim=48, \"blocked\"\tv5","cycles":123456789012,)"
            R"("threads":8,"state_cycles":[1,900000000000,0,)"
            R"(18446744073709551615],"bytes":4096000,"done":3,"jobs":16})");
  // Every field reads back exactly, full-range integers included.
  const JsonValue v = json_parse(line);
  EXPECT_EQ(v.find("index")->as_int64(), e.index);
  EXPECT_EQ(v.find("status")->as_string(), "failed");
  EXPECT_EQ(v.find("name")->as_string(), e.name);
  EXPECT_EQ(v.find("cycles")->as_uint64(), e.cycles);
  EXPECT_EQ(v.find("threads")->as_int64(), e.threads);
  const std::vector<JsonValue>& states = v.find("state_cycles")->items();
  ASSERT_EQ(states.size(), e.state_cycles.size());
  for (std::size_t s = 0; s < states.size(); ++s) {
    EXPECT_EQ(states[s].as_uint64(), e.state_cycles[s]);
  }
  EXPECT_EQ(v.find("bytes")->as_uint64(), e.bytes);
  EXPECT_EQ(v.find("done")->as_uint64(), e.done);
  EXPECT_EQ(v.find("jobs")->as_uint64(), e.jobs);
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

// ---- hlsprof-run --progress against its own report ------------------------

TEST(JobEventE2E, RunProgressMatchesReport) {
  const fs::path dir = fs::path(testing::TempDir()) / "hlsprof_job_event_e2e";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string manifest = (dir / "sweep.manifest").string();
  std::ofstream(manifest) << "workload = vecadd\n"
                             "n = 256,512,768\n"
                             "threads = 2\n"
                             "workers = 2\n"
                             "label = job-event-e2e\n";

  const std::string progress = command_stdout(
      std::string(HLSPROF_RUN_BIN) + " " + manifest +
      " --canonical --quiet --progress --out=" + (dir / "report").string());
  const JsonValue report = json_parse(slurp(dir / "report.json"));
  const std::vector<JsonValue>& jobs = report.find("jobs")->items();
  ASSERT_EQ(jobs.size(), 3u);

  // One event line per job, in completion order.
  std::map<std::int64_t, JsonValue> events;
  std::vector<std::uint64_t> done;
  std::size_t pos = 0;
  while (pos < progress.size()) {
    std::size_t nl = progress.find('\n', pos);
    if (nl == std::string::npos) nl = progress.size();
    const JsonValue e = json_parse(progress.substr(pos, nl - pos));
    EXPECT_EQ(e.find("event")->as_string(), "job");
    EXPECT_EQ(e.find("jobs")->as_uint64(), jobs.size());
    done.push_back(e.find("done")->as_uint64());
    const std::int64_t index = e.find("index")->as_int64();
    EXPECT_TRUE(events.emplace(index, e).second) << "index twice: " << index;
    pos = nl + 1;
  }
  EXPECT_EQ(done, (std::vector<std::uint64_t>{1, 2, 3}));
  ASSERT_EQ(events.size(), jobs.size()) << progress;
  for (const JsonValue& job : jobs) {
    const std::int64_t index = job.find("index")->as_int64();
    SCOPED_TRACE(index);
    const JsonValue& e = events.at(index);
    EXPECT_EQ(e.find("name")->as_string(), job.find("name")->as_string());
    EXPECT_EQ(e.find("status")->as_string(), job.find("status")->as_string());
    EXPECT_EQ(e.find("cycles")->as_uint64(),
              job.find("run")->find("total_cycles")->as_uint64());
    EXPECT_EQ(e.find("threads")->as_int64(),
              job.find("design")->find("num_threads")->as_int64());
    EXPECT_GT(e.find("state_cycles")->items().at(1).as_uint64(), 0u);
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace hlsprof
