// Tests for the batch-experiment runner (src/runner): scheduling
// determinism across worker counts, design-cache correctness and sharing,
// fault isolation, deterministic seeding, timeouts, manifests, reports.
#include <gtest/gtest.h>

#include <pty.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "cli_helpers.hpp"
#include "json_reader.hpp"
#include "core/hlsprof.hpp"
#include "runner/runner.hpp"
#include "workloads/gemm.hpp"
#include "workloads/reference.hpp"
#include "workloads/simple.hpp"

namespace hlsprof {
namespace {

runner::JobSpec small_gemm_job(int dim, int threads) {
  workloads::GemmConfig cfg;
  cfg.dim = dim;
  cfg.threads = threads;
  runner::JobSpec spec;
  spec.name = "gemm.t" + std::to_string(threads);
  spec.kernel = [cfg](SplitMix64&) { return workloads::gemm_vectorized(cfg); };
  spec.bind = [dim](core::Session& s, runner::HostBuffers& bufs,
                    SplitMix64& rng) {
    auto& a = bufs.f32(workloads::random_matrix(dim, rng.next()));
    auto& b = bufs.f32(workloads::random_matrix(dim, rng.next()));
    auto& c = bufs.f32(std::size_t(dim) * std::size_t(dim));
    s.sim().bind_f32("A", a);
    s.sim().bind_f32("B", b);
    s.sim().bind_f32("C", c);
  };
  spec.check = [dim](const core::RunResult&, runner::HostBuffers& bufs) {
    const auto ref =
        workloads::gemm_reference(bufs.f32_at(0), bufs.f32_at(1), dim);
    HLSPROF_CHECK(workloads::max_rel_error(bufs.f32_at(2), ref) < 1e-3,
                  "gemm verification failed");
  };
  return spec;
}

runner::JobSpec vecadd_job(std::int64_t n) {
  runner::JobSpec spec;
  spec.name = "vecadd.n" + std::to_string(n);
  spec.kernel = [n](SplitMix64&) { return workloads::vecadd(n, 4); };
  spec.bind = [n](core::Session& s, runner::HostBuffers& bufs,
                  SplitMix64& rng) {
    auto& x = bufs.f32(workloads::random_vector(n, rng.next()));
    auto& y = bufs.f32(workloads::random_vector(n, rng.next()));
    auto& z = bufs.f32(std::size_t(n));
    s.sim().bind_f32("x", x);
    s.sim().bind_f32("y", y);
    s.sim().bind_f32("z", z);
  };
  spec.check = [n](const core::RunResult&, runner::HostBuffers& bufs) {
    for (std::int64_t i = 0; i < n; ++i) {
      const float want = bufs.f32_at(0)[std::size_t(i)] +
                         bufs.f32_at(1)[std::size_t(i)];
      HLSPROF_CHECK(std::abs(bufs.f32_at(2)[std::size_t(i)] - want) < 1e-5f,
                    "vecadd mismatch");
    }
  };
  return spec;
}

// ---- determinism -----------------------------------------------------------

TEST(RunnerBatch, ResultsIdenticalAcrossWorkerCounts) {
  runner::Batch batch;
  batch.add(small_gemm_job(12, 1));
  batch.add(small_gemm_job(12, 2));
  batch.add(vecadd_job(96));
  batch.add(vecadd_job(128));

  runner::BatchOptions seq;
  seq.workers = 1;
  seq.seed = 7;
  runner::BatchOptions par;
  par.workers = 8;
  par.seed = 7;

  const runner::BatchResult a = batch.run(seq);
  const runner::BatchResult b = batch.run(par);

  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  ASSERT_TRUE(a.all_ok());
  ASSERT_TRUE(b.all_ok());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].seed, b.jobs[i].seed) << i;
    EXPECT_EQ(a.jobs[i].kernel_cycles, b.jobs[i].kernel_cycles) << i;
    EXPECT_EQ(a.jobs[i].total_cycles, b.jobs[i].total_cycles) << i;
    EXPECT_EQ(a.jobs[i].trace_bytes, b.jobs[i].trace_bytes) << i;
    EXPECT_EQ(a.jobs[i].design_key, b.jobs[i].design_key) << i;
  }
  // Aggregate cache traffic is deterministic too — only the per-job hit
  // attribution depends on scheduling.
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.cache_misses, b.cache_misses);

  // The canonical report (wall-clock and per-job attribution stripped) is
  // byte-identical.
  runner::ReportOptions canon;
  canon.canonical = true;
  EXPECT_EQ(runner::report_json(a, canon), runner::report_json(b, canon));
  EXPECT_EQ(runner::report_csv(a, canon), runner::report_csv(b, canon));
}

TEST(RunnerBatch, JobSeedIsIndexKeyedAndStable) {
  const std::uint64_t s0 = runner::Batch::job_seed(1, 0);
  EXPECT_EQ(s0, runner::Batch::job_seed(1, 0));
  EXPECT_NE(s0, runner::Batch::job_seed(1, 1));
  EXPECT_NE(s0, runner::Batch::job_seed(2, 0));
}

TEST(RunnerBatch, ExplicitSpecSeedWins) {
  runner::Batch batch;
  runner::JobSpec spec = vecadd_job(64);
  spec.seed = 1234;
  batch.add(std::move(spec));
  const runner::BatchResult r = batch.run();
  ASSERT_EQ(r.jobs.size(), 1u);
  EXPECT_EQ(r.jobs[0].seed, 1234u);
}

// ---- design cache ----------------------------------------------------------

TEST(RunnerCache, CachedDesignMatchesFreshCompile) {
  // Two jobs with identical kernels: one compiles, one hits, and both must
  // report the same cycles as a hand-rolled fresh compile + run.
  const int dim = 12;
  runner::Batch batch;
  runner::JobSpec j1 = small_gemm_job(dim, 2);
  runner::JobSpec j2 = small_gemm_job(dim, 2);
  j1.seed = 99;  // pin both jobs to identical inputs
  j2.seed = 99;
  batch.add(std::move(j1));
  batch.add(std::move(j2));

  const runner::BatchResult r = batch.run();
  ASSERT_TRUE(r.all_ok());
  EXPECT_EQ(r.cache_misses, 1);
  EXPECT_EQ(r.cache_hits, 1);
  EXPECT_EQ(r.jobs[0].design_key, r.jobs[1].design_key);
  EXPECT_EQ(r.jobs[0].kernel_cycles, r.jobs[1].kernel_cycles);

  // Fresh compile outside the cache.
  workloads::GemmConfig cfg;
  cfg.dim = dim;
  cfg.threads = 2;
  core::Session session(core::compile(workloads::gemm_vectorized(cfg)));
  SplitMix64 rng(99);
  auto a = workloads::random_matrix(dim, rng.next());
  auto b = workloads::random_matrix(dim, rng.next());
  std::vector<float> c(std::size_t(dim) * std::size_t(dim), 0.0f);
  session.sim().bind_f32("A", a);
  session.sim().bind_f32("B", b);
  session.sim().bind_f32("C", c);
  const auto fresh = session.run();
  EXPECT_EQ(fresh.sim.kernel_cycles, r.jobs[0].kernel_cycles);
  EXPECT_EQ(fresh.sim.total_cycles, r.jobs[0].total_cycles);
}

TEST(RunnerCache, KeyIsContentAddressed) {
  workloads::GemmConfig cfg;
  cfg.dim = 8;
  const hls::HlsOptions opts;
  const auto k1 =
      runner::DesignCache::key_of(workloads::gemm_naive(cfg), opts);
  const auto k2 =
      runner::DesignCache::key_of(workloads::gemm_naive(cfg), opts);
  EXPECT_EQ(k1, k2) << "same content must produce the same key";

  // Different kernel content.
  const auto k3 =
      runner::DesignCache::key_of(workloads::gemm_vectorized(cfg), opts);
  EXPECT_NE(k1, k3);

  // Different HLS options on the same kernel.
  hls::HlsOptions no_reorder;
  no_reorder.thread_reordering = false;
  const auto k4 =
      runner::DesignCache::key_of(workloads::gemm_naive(cfg), no_reorder);
  EXPECT_NE(k1, k4);
}

TEST(RunnerCache, SharedCachePersistsAcrossBatches) {
  runner::DesignCache cache;
  runner::Batch batch;
  batch.add(vecadd_job(64));

  runner::BatchOptions opts;
  opts.cache = &cache;
  const runner::BatchResult first = batch.run(opts);
  EXPECT_EQ(first.cache_misses, 1);
  EXPECT_EQ(first.cache_hits, 0);

  const runner::BatchResult second = batch.run(opts);
  EXPECT_EQ(second.cache_misses, 0);
  EXPECT_EQ(second.cache_hits, 1);
  EXPECT_EQ(second.jobs[0].kernel_cycles, first.jobs[0].kernel_cycles);
  EXPECT_EQ(cache.stats().misses, 1);  // one design compiled, held once
}

// ---- fault isolation -------------------------------------------------------

TEST(RunnerBatch, FailedJobDoesNotPoisonTheBatch) {
  runner::Batch batch;
  batch.add(vecadd_job(64));

  runner::JobSpec bad = vecadd_job(96);
  bad.name = "bad.check";
  bad.check = [](const core::RunResult&, runner::HostBuffers&) {
    throw std::runtime_error("intentional verification failure");
  };
  batch.add(std::move(bad));

  runner::JobSpec worse;
  worse.name = "bad.factory";
  worse.kernel = [](SplitMix64&) -> ir::Kernel {
    throw std::runtime_error("intentional factory failure");
  };
  batch.add(std::move(worse));

  batch.add(vecadd_job(128));

  runner::BatchOptions opts;
  opts.workers = 4;
  const runner::BatchResult r = batch.run(opts);

  ASSERT_EQ(r.jobs.size(), 4u);
  EXPECT_EQ(r.jobs[0].status, runner::JobStatus::ok);
  EXPECT_EQ(r.jobs[1].status, runner::JobStatus::failed);
  EXPECT_NE(r.jobs[1].error.find("verification failure"), std::string::npos);
  EXPECT_EQ(r.jobs[2].status, runner::JobStatus::failed);
  EXPECT_NE(r.jobs[2].error.find("factory failure"), std::string::npos);
  EXPECT_EQ(r.jobs[3].status, runner::JobStatus::ok);
  EXPECT_FALSE(r.all_ok());
  EXPECT_EQ(r.count(runner::JobStatus::failed), 2);
  EXPECT_EQ(r.count(runner::JobStatus::ok), 2);
}

TEST(RunnerBatch, CycleBudgetAbortsDeterministically) {
  runner::JobSpec spec = vecadd_job(512);
  spec.max_cycles = 50;  // far below what the run needs
  runner::Batch batch;
  batch.add(std::move(spec));

  const runner::BatchResult a = batch.run();
  const runner::BatchResult b = batch.run();
  ASSERT_EQ(a.jobs[0].status, runner::JobStatus::failed);
  EXPECT_EQ(a.jobs[0].error, b.jobs[0].error)
      << "cycle-budget abort must be deterministic";
  EXPECT_FALSE(a.jobs[0].error.empty());
}

TEST(RunnerBatch, SoftTimeoutDowngradesOkJobs) {
  runner::JobSpec spec = vecadd_job(128);
  spec.soft_timeout_ms = 1e-6;  // any real run exceeds this
  runner::Batch batch;
  batch.add(std::move(spec));
  const runner::BatchResult r = batch.run();
  EXPECT_EQ(r.jobs[0].status, runner::JobStatus::timed_out);
}

// ---- reports ---------------------------------------------------------------

TEST(RunnerReport, JsonShapeAndFieldPolicy) {
  runner::Batch batch;
  batch.add(vecadd_job(64));
  const runner::BatchResult r = batch.run();

  const std::string full = runner::report_json(r);
  EXPECT_NE(full.find("\"schema\":\"hlsprof-batch-report\""),
            std::string::npos);
  EXPECT_NE(full.find("\"wall_ms\""), std::string::npos);
  EXPECT_NE(full.find("\"cache_hit\""), std::string::npos);

  runner::ReportOptions canon;
  canon.canonical = true;
  const std::string c = runner::report_json(r, canon);
  EXPECT_EQ(c.find("\"wall_ms\""), std::string::npos);
  EXPECT_EQ(c.find("\"cache_hit\""), std::string::npos);
  // Aggregate cache counters stay — they are deterministic.
  EXPECT_NE(c.find("\"cache\""), std::string::npos);
}

TEST(RunnerReport, CsvHasHeaderAndOneRowPerJob) {
  runner::Batch batch;
  batch.add(vecadd_job(64));
  batch.add(vecadd_job(96));
  const runner::BatchResult r = batch.run();
  const std::string csv = runner::report_csv(r);
  int lines = 0;
  for (char ch : csv) lines += (ch == '\n') ? 1 : 0;
  EXPECT_EQ(lines, 3) << csv;  // header + 2 rows
  EXPECT_EQ(csv.rfind("index,name,", 0), 0u)
      << "header must lead with index,name";
  const std::string header = csv.substr(0, csv.find('\n'));
  EXPECT_NE(header.find(",trace_bytes,peak_trace_buffer_bytes,"),
            std::string::npos)
      << header;
}

TEST(RunnerReport, PeakTraceBufferBoundedByProfilingBuffer) {
  runner::Batch batch;
  runner::JobSpec spec = vecadd_job(256);
  spec.run.profiling.buffer_lines = 4;
  spec.run.profiling.flush_headroom_lines = 1;
  batch.add(std::move(spec));
  const runner::BatchResult r = batch.run();
  ASSERT_EQ(r.jobs.size(), 1u);
  ASSERT_EQ(r.jobs[0].status, runner::JobStatus::ok) << r.jobs[0].error;
  EXPECT_GT(r.jobs[0].peak_trace_buffer_bytes, 0u);
  EXPECT_LE(r.jobs[0].peak_trace_buffer_bytes, 4 * trace::kLineBytes);
  EXPECT_GE(r.jobs[0].trace_bytes, r.jobs[0].peak_trace_buffer_bytes);
}

// ---- manifests -------------------------------------------------------------

TEST(RunnerManifest, CrossProductInDeclarationOrder) {
  const runner::ManifestRun run = runner::parse_manifest(R"(
    # comment
    workload = vecadd
    n = 32,64
    threads = 1,2
    workers = 2
    verify = on
  )");
  ASSERT_EQ(run.batch.size(), 4u);
  EXPECT_EQ(run.options.workers, 2);
  // n declared before threads, so n is the outer axis.
  EXPECT_EQ(run.batch.spec(0).name, "vecadd.n=32.threads=1");
  EXPECT_EQ(run.batch.spec(1).name, "vecadd.n=32.threads=2");
  EXPECT_EQ(run.batch.spec(2).name, "vecadd.n=64.threads=1");
  EXPECT_EQ(run.batch.spec(3).name, "vecadd.n=64.threads=2");
}

TEST(RunnerManifest, RejectsUnknownKeysAndBadValues) {
  EXPECT_THROW(runner::parse_manifest("workload = gemm\nbogus = 1\n"), Error);
  EXPECT_THROW(runner::parse_manifest("workload = starship\n"), Error);
  EXPECT_THROW(runner::parse_manifest("workload = gemm\ndim = twelve\n"),
               Error);
  EXPECT_THROW(runner::parse_manifest("no equals sign"), Error);
}

TEST(RunnerManifest, ParsedBatchRunsAndVerifies) {
  runner::ManifestRun run = runner::parse_manifest(R"(
    workload = vecadd
    n = 64
    threads = 2,4
    verify = on
    workers = 2
  )");
  const runner::BatchResult r = run.batch.run(run.options);
  ASSERT_EQ(r.jobs.size(), 2u);
  EXPECT_TRUE(r.all_ok()) << r.jobs[0].error << " / " << r.jobs[1].error;
}

// ---- pool ------------------------------------------------------------------

TEST(RunnerPool, RunsEverySubmittedJobAcrossWorkers) {
  runner::Pool pool(4);
  std::vector<int> done(100, 0);
  for (int i = 0; i < 100; ++i) {
    pool.submit([&done, i] { done[std::size_t(i)] = i + 1; });
  }
  pool.wait();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(done[std::size_t(i)], i + 1);
}

TEST(RunnerPool, ResolveWorkersClampsToAtLeastOne) {
  EXPECT_GE(runner::Pool::resolve_workers(0), 1);
  EXPECT_EQ(runner::Pool::resolve_workers(-3), 1);
  EXPECT_EQ(runner::Pool::resolve_workers(5), 5);
}

/// Exit status of a shell command (its output is discarded).
int exit_status(const std::string& cmd) {
  const int raw = std::system((cmd + " >/dev/null 2>&1").c_str());
  return WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
}

TEST(RunnerCli, NegativeWorkersIsAUsageError) {
  const std::filesystem::path manifest =
      std::filesystem::path(testing::TempDir()) / "negative_workers.manifest";
  std::ofstream(manifest) << "workload = pi\nsteps = 100\nthreads = 1\n";
  const std::string run =
      std::string(HLSPROF_RUN_BIN) + " " + manifest.string() + " --quiet ";
  // Out-of-range values and unknown flags are usage errors that name the
  // flag.
  for (const std::string flag :
       {"--workers=-2", "--seed=-5", "--cache-max-bytes=-5", "--connect=x"}) {
    std::FILE* p = ::popen((run + flag + " 2>&1").c_str(), "r");
    ASSERT_NE(p, nullptr);
    std::string out(4096, '\0');
    out.resize(std::fread(out.data(), 1, out.size(), p));
    const int raw = ::pclose(p);
    EXPECT_EQ(WIFEXITED(raw) ? WEXITSTATUS(raw) : -1, 2) << flag;
    // The first line is the error; the usage text after it lists every
    // flag, so only the first line can show the right one was named.
    const std::string name = flag.substr(0, flag.find('='));
    EXPECT_NE(out.substr(0, out.find('\n')).find(name), std::string::npos)
        << flag << ": " << out;
  }
  EXPECT_EQ(exit_status(run + "--workers=1"), 0);
  EXPECT_EQ(exit_status(run + "--seed=0"), 0);
}

TEST(RunnerCli, ReportsParseAndTelemetryLeavesCanonicalBytesAlone) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(testing::TempDir()) / "hlsprof_cli_smoke";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string run = std::string(HLSPROF_RUN_BIN) + " " +
                          HLSPROF_MANIFEST_DIR + "/pi_sampling.manifest" +
                          " --workers=2 --json --canonical --quiet --out=";
  const fs::path plain = dir / "plain";
  const fs::path traced = dir / "traced";

  // The JSON report on stdout and both report files parse.
  const std::string stdout_json = command_stdout(run + plain.string());
  EXPECT_NO_THROW(json_parse(stdout_json));
  EXPECT_NO_THROW(json_parse(slurp(plain.string() + ".json")));
  EXPECT_FALSE(slurp(plain.string() + ".csv").empty());

  // Telemetry on: every sidecar parses, the trace carries the job phase
  // spans, and the canonical report bytes do not change.
  const fs::path snapshot = dir / "telemetry.json";
  const fs::path chrome = dir / "chrome_trace.json";
  const std::string traced_json = command_stdout(
      run + traced.string() + " --telemetry-out=" + snapshot.string() +
      " --chrome-trace=" + chrome.string());
  EXPECT_NO_THROW(json_parse(slurp(snapshot)));
  EXPECT_NO_THROW(json_parse(slurp(traced.string() + ".telemetry.json")));
  const std::string trace = slurp(chrome);
  EXPECT_NO_THROW(json_parse(trace));
  for (const char* span : {"\"job.session\"", "\"sim.run\"",
                           "\"job.teardown\""}) {
    EXPECT_NE(trace.find(span), std::string::npos) << span;
  }
  EXPECT_EQ(stdout_json, traced_json);
  EXPECT_EQ(slurp(plain.string() + ".json"), slurp(traced.string() + ".json"));
  EXPECT_EQ(slurp(plain.string() + ".csv"), slurp(traced.string() + ".csv"));

  // --version works; an unknown flag is an error, not ignored.
  EXPECT_EQ(exit_status(std::string(HLSPROF_RUN_BIN) + " --version"), 0);
  EXPECT_NE(exit_status(std::string(HLSPROF_RUN_BIN) + " --bogus"), 0);
}

TEST(RunnerCli, ApproxTraceStaysWithinHalfPercentOfExact) {
  // The approx tier's tolerance contract (docs/PERF.md) end to end: every
  // job's total_cycles within 0.5 % of the exact run's.
  const std::string run =
      std::string(HLSPROF_RUN_BIN) + " " + HLSPROF_MANIFEST_DIR +
      "/gemm_threads.manifest --workers=2 --json --canonical --quiet --out=" +
      (std::filesystem::path(testing::TempDir()) / "hlsprof_approx_").string();
  const JsonValue exact = json_parse(command_stdout(run + "exact"));
  const JsonValue approx =
      json_parse(command_stdout(run + "approx --approx-trace"));
  const std::vector<JsonValue>& exact_jobs = exact.find("jobs")->items();
  const std::vector<JsonValue>& approx_jobs = approx.find("jobs")->items();
  ASSERT_EQ(exact_jobs.size(), 5u);
  ASSERT_EQ(approx_jobs.size(), exact_jobs.size());
  for (std::size_t i = 0; i < exact_jobs.size(); ++i) {
    const std::string name = exact_jobs[i].find("name")->as_string();
    EXPECT_EQ(approx_jobs[i].find("name")->as_string(), name);
    const auto cycles = [](const JsonValue& job) {
      return double(job.find("run")->find("total_cycles")->as_uint64());
    };
    const double want = cycles(exact_jobs[i]);
    ASSERT_GT(want, 0.0) << name;
    EXPECT_LE(std::abs(cycles(approx_jobs[i]) - want) / want, 0.005) << name;
  }
}

TEST(RunnerCli, PiWithOneLaneRunsAndVerifies) {
  // unroll = 1 builds a scalar accumulator; verify (on by default) fails
  // the job unless the result is within the pi tolerance.
  const std::filesystem::path manifest =
      std::filesystem::path(testing::TempDir()) / "pi_one_lane.manifest";
  std::ofstream(manifest)
      << "workload = pi\nsteps = 64\nthreads = 1\nunroll = 1\n";
  const JsonValue report = json_parse(command_stdout(
      std::string(HLSPROF_RUN_BIN) + " " + manifest.string() +
      " --json --quiet"));
  const std::vector<JsonValue>& jobs = report.find("jobs")->items();
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].find("status")->as_string(), "ok")
      << jobs[0].find("error")->as_string();
}

TEST(RunnerCli, WarmDesignCacheCompilesNothingAndKeepsBytes) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(testing::TempDir()) / "hlsprof_cli_warm";
  fs::remove_all(dir);
  fs::create_directories(dir);
  // Two runs of one manifest on one --cache-dir; returns the telemetry
  // snapshot of the run.
  const auto run = [&](const std::string& tag) {
    const fs::path telemetry = dir / (tag + ".snapshot.json");
    command_stdout(std::string(HLSPROF_RUN_BIN) + " " + HLSPROF_MANIFEST_DIR +
                   "/gemm_threads.manifest --workers=2 --canonical --quiet"
                   " --cache-dir=" + (dir / "store").string() +
                   " --out=" + (dir / tag).string() +
                   " --telemetry-out=" + telemetry.string());
    return json_parse(slurp(telemetry));
  };
  const auto counter = [](const JsonValue& snap, const char* name) {
    const JsonValue* c = snap.find("counters")->find(name);
    return c == nullptr ? 0 : c->find("value")->as_int64();
  };
  const JsonValue cold = run("cold");
  const JsonValue warm = run("warm");
  constexpr std::int64_t kJobs = 5;  // threads = 1,2,4,8,16
  EXPECT_EQ(counter(cold, "hls.compiles"), kJobs);
  EXPECT_EQ(counter(cold, "cache.disk_misses"), kJobs);
  EXPECT_GT(counter(cold, "cache.bytes_written"), 0);
  // Every design of the warm run comes off the disk tier.
  EXPECT_EQ(counter(warm, "hls.compiles"), 0);
  EXPECT_EQ(counter(warm, "cache.disk_hits"), kJobs);
  EXPECT_EQ(counter(warm, "cache.disk_misses"), 0);
  const std::string cold_json = slurp(dir / "cold.json");
  EXPECT_FALSE(cold_json.empty());
  EXPECT_EQ(cold_json, slurp(dir / "warm.json"));
  EXPECT_EQ(slurp(dir / "cold.csv"), slurp(dir / "warm.csv"));
}

/// Runs `args` on a new 80x24 pseudo-terminal and returns what it wrote
/// there (stdout and stderr both); fails the test unless it exits 0.
std::string pty_output(std::vector<std::string> args) {
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  winsize size{};
  size.ws_row = 24;
  size.ws_col = 80;
  int master = -1;
  const pid_t pid = ::forkpty(&master, nullptr, nullptr, &size);
  if (pid == 0) {
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  EXPECT_GT(pid, 0);
  if (pid < 0) return std::string();
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(master, buf, sizeof(buf));
    if (n > 0) {
      out.append(buf, std::size_t(n));
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      break;  // EOF, or EIO once the child has closed the terminal
    }
  }
  ::close(master);
  int status = 0;
  ::waitpid(pid, &status, 0);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << out;
  return out;
}

TEST(RunnerCli, LiveDrawsOnlyOnATerminalAndKeepsBytes) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(testing::TempDir()) / "hlsprof_cli_live";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string manifest =
      std::string(HLSPROF_MANIFEST_DIR) + "/pi_sampling.manifest";
  const std::string run = std::string(HLSPROF_RUN_BIN) + " " + manifest +
                          " --workers=2 --canonical --out=";
  command_stdout(run + (dir / "base").string() + " --quiet");

  // stderr is a file, not a terminal: --live draws nothing there.
  command_stdout(run + (dir / "pipe").string() + " --live 2>" +
                 (dir / "pipe.err").string());
  EXPECT_EQ(slurp(dir / "pipe.err").find('\x1b'), std::string::npos);

  // On a terminal the frames redraw their lines in place.
  const std::string screen =
      pty_output({HLSPROF_RUN_BIN, manifest, "--workers=2", "--canonical",
                  "--live", "--out=" + (dir / "pty").string()});
  EXPECT_NE(screen.find("\x1b[2K"), std::string::npos) << screen;

  // Either way the reports are the bytes of a run without --live.
  const std::string base_json = slurp(dir / "base.json");
  const std::string base_csv = slurp(dir / "base.csv");
  EXPECT_FALSE(base_json.empty());
  for (const char* tag : {"pipe", "pty"}) {
    EXPECT_EQ(slurp(dir / (std::string(tag) + ".json")), base_json) << tag;
    EXPECT_EQ(slurp(dir / (std::string(tag) + ".csv")), base_csv) << tag;
  }
}

/// Returns the message a parse failure produces (fails the test if the
/// manifest parses).
std::string manifest_error(const std::string& text) {
  try {
    runner::parse_manifest(text);
  } catch (const Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "manifest unexpectedly parsed: " << text;
  return "";
}

TEST(RunnerManifest, NegativeWorkersNamesTheLine) {
  const std::string msg =
      manifest_error("workload = pi\nlabel = x\nworkers = -4\n");
  EXPECT_NE(msg.find("manifest:3:"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'workers'"), std::string::npos) << msg;
  EXPECT_EQ(runner::parse_manifest("workload = pi\nworkers = 0\n")
                .options.workers,
            0);
}

TEST(RunnerManifest, ErrorsNameTheLineAndOffendingKey) {
  // Unknown key: line number, the key, and the full vocabulary.
  std::string msg = manifest_error("workload = gemm\nbogus = 1\n");
  EXPECT_NE(msg.find("manifest:2:"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'bogus'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("threads"), std::string::npos)
      << "should list known keys: " << msg;

  // Bad integer: key, value, and expectation.
  msg = manifest_error("workload = gemm\ndim = twelve\n");
  EXPECT_NE(msg.find("manifest:2:"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'dim'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("\"twelve\""), std::string::npos) << msg;
  EXPECT_NE(msg.find("integer"), std::string::npos) << msg;

  // Bad on/off value.
  msg = manifest_error("workload = gemm\nverify = yep\n");
  EXPECT_NE(msg.find("'verify'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("on/off"), std::string::npos) << msg;

  // Missing `=` quotes the raw line.
  msg = manifest_error("workload = gemm\nno equals sign\n");
  EXPECT_NE(msg.find("manifest:2:"), std::string::npos) << msg;
  EXPECT_NE(msg.find("\"no equals sign\""), std::string::npos) << msg;

  // Duplicate key points back at the first declaration.
  msg = manifest_error("workload = gemm\ndim = 8\n\ndim = 16\n");
  EXPECT_NE(msg.find("manifest:4:"), std::string::npos) << msg;
  EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;

  // A scalar key given a sweep list reports every value it saw.
  msg = manifest_error("workload = gemm\nworkers = 2,4\n");
  EXPECT_NE(msg.find("'workers'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("2, 4"), std::string::npos) << msg;

  // Out-of-range integers fail on their line instead of being narrowed:
  // 2^32 + 8 would run as dim 8, and -1 as a 2^64 - 1 sampling period.
  msg = manifest_error("workload = gemm\ndim = 4294967304\n");
  EXPECT_NE(msg.find("manifest:2: key 'dim': must be <= 2147483647"),
            std::string::npos)
      << msg;
  msg = manifest_error("workload = pi\nsampling_period = 1024, -1\n");
  EXPECT_NE(msg.find("manifest:2: key 'sampling_period': must be >= 1"),
            std::string::npos)
      << msg;
  msg = manifest_error("workload = pi\n\nseed = -5\n");
  EXPECT_NE(msg.find("manifest:3: key 'seed': must be >= 0"),
            std::string::npos)
      << msg;
  // The kernel holds `steps` in 32 bits: 2^32 + 16 would run as 16 steps.
  msg = manifest_error("workload = pi\nsteps = 4294967312\n");
  EXPECT_NE(msg.find("manifest:2: key 'steps': must be <= 2147483647"),
            std::string::npos)
      << msg;
  // pi's unroll is its vector width.
  msg = manifest_error("workload = pi\nunroll = 8,17\n");
  EXPECT_NE(msg.find("manifest:2: key 'unroll': must be <= 16"),
            std::string::npos)
      << msg;
  msg = manifest_error("workload = gemm\nthreads = 4,0\n");
  EXPECT_NE(msg.find("manifest:2: key 'threads': must be >= 1"),
            std::string::npos)
      << msg;
  // The bounds themselves parse.
  const runner::ManifestRun edge =
      runner::parse_manifest("workload = gemm\ndim = 2147483647\nseed = 0\n");
  EXPECT_EQ(edge.batch.size(), 1u);
  EXPECT_EQ(edge.options.seed, 0u);

  // Unknown workload lists the supported ones.
  msg = manifest_error("workload = starship\n");
  EXPECT_NE(msg.find("\"starship\""), std::string::npos) << msg;
  EXPECT_NE(msg.find("gemm, pi, vecadd, dot"), std::string::npos) << msg;
}

TEST(ManifestFuzz, TruncationsAndByteMutationsThrowOrParse) {
  // The manifest is hlsprof-run's one text input, so it is untrusted:
  // every damaged form of both example manifests must fail with
  // hlsprof::Error or parse into at least one job, never crash.
  for (const char* name : {"gemm_threads", "pi_sampling"}) {
    const std::string text = slurp(std::string(HLSPROF_MANIFEST_DIR) + "/" +
                                   name + ".manifest");
    ASSERT_FALSE(text.empty()) << name;
    ASSERT_GE(runner::parse_manifest(text).batch.size(), 1u) << name;
    const auto try_parse = [](const std::string& t) {
      try {
        EXPECT_GE(runner::parse_manifest(t).batch.size(), 1u) << t;
      } catch (const Error&) {
      }
    };
    for (std::size_t n = 0; n < text.size(); ++n) {
      try_parse(text.substr(0, n));
    }
    for (std::size_t pos = 0; pos < text.size(); ++pos) {
      for (int byte = 0; byte < 256; ++byte) {
        std::string mutated = text;
        mutated[pos] = char(byte);
        try_parse(mutated);
      }
    }
  }
}

// ---- pool drain ------------------------------------------------------------

TEST(RunnerPool, DestructorDrainsQueuedTasksWithoutLoss) {
  std::atomic<int> ran{0};
  {
    runner::Pool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.submit([&ran] { ran.fetch_add(1); });
    }
    // No wait(): destruction alone must run everything already submitted.
  }
  EXPECT_EQ(ran.load(), 64);
}

TEST(RunnerBatch, ConcurrentBatchesShareOneCacheWithSingleFlight) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(testing::TempDir()) / "hlsprof_sharedcache";
  fs::remove_all(dir);

  const auto build = [](runner::Batch& b) {
    // Two jobs, ONE unique design: the second must always be a hit.
    b.add(small_gemm_job(12, 2));
    b.add(small_gemm_job(12, 2));
  };

  // Reference: a solo run with its own fresh cache.
  runner::Batch solo;
  build(solo);
  runner::BatchOptions solo_options;
  solo_options.workers = 2;
  const runner::BatchResult want = solo.run(solo_options);

  runner::DesignCache cache;
  runner::DiskDesignStore::Options disk;
  disk.dir = dir.string();
  cache.attach_disk(disk);

  runner::BatchResult results[2];
  std::thread threads[2];
  for (int i = 0; i < 2; ++i) {
    threads[i] = std::thread([&, i] {
      runner::Batch b;
      build(b);
      runner::BatchOptions options;
      options.workers = 2;
      options.cache = &cache;
      results[i] = b.run(options);
    });
  }
  for (auto& t : threads) t.join();

  // Single-flight across both concurrent batches: the one shared design
  // was compiled exactly once, ever.
  const runner::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 3);
  EXPECT_EQ(stats.disk_misses, 1) << "the single miss went to a compile";

  // Job payloads are byte-identical to the solo run. Batch-level
  // hit/miss counts are window deltas over the shared cache, so with
  // concurrent batches each window also sees the other batch's events
  // (anywhere from its own 2 up to all 4); normalize them before
  // comparing report bytes.
  for (const auto& result : results) {
    EXPECT_GE(result.cache_hits + result.cache_misses, 2);
    EXPECT_LE(result.cache_hits + result.cache_misses, 4);
  }
  runner::ReportOptions ro;
  ro.canonical = true;
  runner::BatchResult normalized_want = want;
  normalized_want.cache_hits = 0;
  normalized_want.cache_misses = 0;
  for (auto& result : results) {
    runner::BatchResult normalized = result;
    normalized.cache_hits = 0;
    normalized.cache_misses = 0;
    EXPECT_EQ(runner::report_json(normalized, ro),
              runner::report_json(normalized_want, ro));
  }

  // Warm restart from disk only: a new cache performs zero compiles.
  runner::DesignCache warm;
  warm.attach_disk(disk);
  runner::Batch again;
  build(again);
  runner::BatchOptions warm_options;
  warm_options.workers = 2;
  warm_options.cache = &warm;
  const runner::BatchResult rewarmed = again.run(warm_options);
  EXPECT_TRUE(rewarmed.all_ok());
  EXPECT_EQ(warm.stats().disk_hits, 1);
  EXPECT_EQ(warm.stats().disk_misses, 0) << "warm start must not compile";

  fs::remove_all(dir);
}

}  // namespace
}  // namespace hlsprof
