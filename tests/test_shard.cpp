// Tests for the multi-process shard coordinator (src/runner/shard):
// index partitioning, sub-manifest construction, the `select` control
// key's slice determinism, report round-trip + merge byte-identity, and
// end-to-end child-process runs including SIGKILL recovery and a warm
// shared design cache across the fleet.
#include <gtest/gtest.h>

#include <signal.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "runner/runner.hpp"

namespace hlsprof {
namespace {

namespace fs = std::filesystem;

// A small sweep whose six jobs have six distinct designs, cheap enough
// for child processes in CI.
const char* kManifest = R"(
workload = vecadd
n = 48,64,80,96,112,128
profiling = off
verify = on
workers = 2
seed = 7
label = shard-suite
)";

// Sweep sharing ONE design across all jobs (sampling period only changes
// run behaviour... no — identical n => identical design): exercises the
// cache-rebase path where per-shard real counters cannot simply add up.
const char* kSharedDesignManifest = R"(
workload = pi
steps = 4000
threads = 2
sampling_period = 1024,8192,65536
profiling = on
verify = on
workers = 2
label = shard-shared
)";

std::vector<int> iota_universe(int n) {
  std::vector<int> u(static_cast<std::size_t>(n));
  std::iota(u.begin(), u.end(), 0);
  return u;
}

std::string canonical_report(const runner::BatchResult& result,
                             const std::string& label) {
  runner::ReportOptions opts;
  opts.canonical = true;
  opts.label = label;
  return runner::report_json(result, opts);
}

std::string canonical_csv(const runner::BatchResult& result,
                          const std::string& label) {
  runner::ReportOptions opts;
  opts.canonical = true;
  opts.label = label;
  return runner::report_csv(result, opts);
}

/// The single-process truth the merged output must reproduce.
runner::BatchResult run_whole(const std::string& text) {
  runner::ManifestRun run = runner::parse_manifest(text);
  return run.batch.run(run.options);
}

std::string fresh_dir(const std::string& name) {
  const fs::path dir =
      fs::path(testing::TempDir()) / "hlsprof_shard" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

// ---- index partitioning ----------------------------------------------------

TEST(ShardSplit, RoundRobinIsDisjointAndCovering) {
  const std::vector<int> universe = {0, 1, 2, 3, 4, 5, 6};
  const auto parts =
      runner::split_indices(universe, 3, runner::ShardStrategy::round_robin);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], (std::vector<int>{0, 3, 6}));
  EXPECT_EQ(parts[1], (std::vector<int>{1, 4}));
  EXPECT_EQ(parts[2], (std::vector<int>{2, 5}));
}

TEST(ShardSplit, BlockIsContiguousAndBalanced) {
  const auto parts = runner::split_indices(iota_universe(7), 3,
                                           runner::ShardStrategy::block);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(parts[1], (std::vector<int>{3, 4}));
  EXPECT_EQ(parts[2], (std::vector<int>{5, 6}));
}

TEST(ShardSplit, MoreShardsThanJobsLeavesEmptyParts) {
  for (auto strategy :
       {runner::ShardStrategy::block, runner::ShardStrategy::round_robin}) {
    const auto parts = runner::split_indices(iota_universe(2), 5, strategy);
    ASSERT_EQ(parts.size(), 5u);
    std::multiset<int> seen;
    for (const auto& p : parts) seen.insert(p.begin(), p.end());
    EXPECT_EQ(seen, (std::multiset<int>{0, 1}));
  }
}

TEST(ShardSplit, StrategyNames) {
  EXPECT_EQ(runner::shard_strategy_from_name("block"),
            runner::ShardStrategy::block);
  EXPECT_EQ(runner::shard_strategy_from_name("round_robin"),
            runner::ShardStrategy::round_robin);
  EXPECT_EQ(runner::shard_strategy_from_name("round-robin"),
            runner::ShardStrategy::round_robin);
  EXPECT_THROW(runner::shard_strategy_from_name("diagonal"), Error);
}

// ---- sub-manifests and the select key --------------------------------------

TEST(ShardManifest, SubManifestReplacesSelectOutAndSeed) {
  const std::string text =
      "workload = vecadd\nn = 8,16,32\nout = orig\nselect = 0\nseed = 3\n";
  const std::string sub = runner::make_sub_manifest(text, {1, 2}, 11);
  EXPECT_EQ(sub.find("out ="), std::string::npos);
  EXPECT_EQ(sub.find("select = 0"), std::string::npos);
  EXPECT_EQ(sub.find("seed = 3"), std::string::npos);
  EXPECT_NE(sub.find("select = 1,2"), std::string::npos);
  EXPECT_NE(sub.find("seed = 11"), std::string::npos);
  // Still a valid manifest that expands to exactly the selection.
  runner::ManifestRun run = runner::parse_manifest(sub);
  EXPECT_EQ(run.options.select, (std::vector<int>{1, 2}));
  EXPECT_EQ(run.options.seed, 11u);
}

TEST(ShardManifest, SelectKeyErrors) {
  EXPECT_THROW(
      runner::parse_manifest("workload = vecadd\nn = 8,16\nselect = 5\n"),
      Error);
  EXPECT_THROW(
      runner::parse_manifest("workload = vecadd\nn = 8,16\nselect = -1\n"),
      Error);
  EXPECT_THROW(
      runner::parse_manifest("workload = vecadd\nn = 8,16\nselect = one\n"),
      Error);
}

TEST(ShardSelect, SelectedRunIsTheSliceOfTheFullRun) {
  const runner::BatchResult full = run_whole(kManifest);

  runner::ManifestRun sub =
      runner::parse_manifest(runner::make_sub_manifest(kManifest, {1, 4}));
  const runner::BatchResult part = sub.batch.run(sub.options);
  ASSERT_EQ(part.jobs.size(), 2u);

  // Selected jobs keep their original indices, seeds, and every metric —
  // compare via the canonical report of an equivalent hand-built slice.
  runner::BatchResult slice;
  slice.jobs = {full.jobs[1], full.jobs[4]};
  runner::rebase_cache_stats(slice);
  runner::BatchResult rebased_part = part;
  runner::rebase_cache_stats(rebased_part);
  EXPECT_EQ(canonical_report(rebased_part, "x"),
            canonical_report(slice, "x"));
  EXPECT_EQ(part.jobs[0].index, 1);
  EXPECT_EQ(part.jobs[1].index, 4);
}

// ---- progress events -------------------------------------------------------

TEST(ShardProgress, RoundTripsNamesWithSpaces) {
  runner::JobResult j;
  j.index = 12;
  j.status = runner::JobStatus::timed_out;
  j.name = "gemm dim=48 threads=4, blocked \"v2\"";
  const std::string line =
      runner::format_job_event(runner::make_job_event(j, 1, 3));
  EXPECT_EQ(line.find('\n'), std::string::npos);
  runner::JobEvent e;
  ASSERT_TRUE(runner::parse_job_event(line, &e));
  EXPECT_EQ(e.index, 12);
  EXPECT_EQ(e.status, runner::JobStatus::timed_out);
  EXPECT_EQ(e.name, j.name);
  EXPECT_FALSE(runner::parse_job_event("plain stdout chatter", &e));
  EXPECT_FALSE(runner::parse_job_event(
      R"({"event":"job","index":"x","status":"ok"})", &e));
}

// ---- report round-trip and merging -----------------------------------------

/// Simulate shards in-process: run each sub-manifest through its own
/// batch (own fresh cache), serialize to canonical JSON, parse back.
std::vector<std::vector<runner::JobResult>> run_shards_inprocess(
    const std::string& text, const std::vector<std::vector<int>>& parts) {
  std::vector<std::vector<runner::JobResult>> out;
  for (const auto& part : parts) {
    if (part.empty()) continue;
    runner::ManifestRun sub =
        runner::parse_manifest(runner::make_sub_manifest(text, part));
    const runner::BatchResult r = sub.batch.run(sub.options);
    out.push_back(runner::parse_report_jobs(canonical_report(r, sub.label)));
  }
  return out;
}

TEST(ShardMerge, MergedReportIsByteIdenticalToSingleRun) {
  for (const char* text : {kManifest, kSharedDesignManifest}) {
    const runner::BatchResult single = run_whole(text);
    const std::string label =
        runner::parse_manifest(text).label;
    const std::vector<int> universe = iota_universe(int(single.jobs.size()));
    const auto parts =
        runner::split_indices(universe, 3, runner::ShardStrategy::round_robin);

    int dups = -1;
    const runner::BatchResult merged = runner::merge_job_results(
        run_shards_inprocess(text, parts), universe, &dups);
    EXPECT_EQ(dups, 0);
    EXPECT_EQ(canonical_report(merged, label),
              canonical_report(single, label));
    EXPECT_EQ(canonical_csv(merged, label), canonical_csv(single, label));
  }
}

TEST(ShardMerge, DuplicateCompletionsDedupDeterministically) {
  const runner::BatchResult single = run_whole(kManifest);
  const std::vector<int> universe = iota_universe(int(single.jobs.size()));
  const auto parts =
      runner::split_indices(universe, 2, runner::ShardStrategy::block);
  auto shards = run_shards_inprocess(kManifest, parts);
  // A speculative backup delivered shard 1's jobs a second time.
  shards.push_back(shards[1]);
  int dups = -1;
  const runner::BatchResult merged =
      runner::merge_job_results(shards, universe, &dups);
  EXPECT_EQ(dups, int(parts[1].size()));
  EXPECT_EQ(canonical_report(merged, "d"), canonical_report(single, "d"));
}

TEST(ShardMerge, MissingJobFails) {
  const auto parts = runner::split_indices(iota_universe(6), 3,
                                           runner::ShardStrategy::block);
  auto shards = run_shards_inprocess(kManifest, parts);
  shards.pop_back();  // lose shard 2's jobs entirely
  EXPECT_THROW(runner::merge_job_results(shards, iota_universe(6), nullptr),
               Error);
}

TEST(ShardMerge, ReportJobsRoundTripExactly) {
  const runner::BatchResult single = run_whole(kManifest);
  const std::vector<runner::JobResult> jobs =
      runner::parse_report_jobs(canonical_report(single, "rt"));
  ASSERT_EQ(jobs.size(), single.jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    // Seeds are full-range uint64 (SplitMix64) — the round trip must be
    // exact, not a double approximation.
    EXPECT_EQ(jobs[i].seed, single.jobs[i].seed);
    EXPECT_EQ(jobs[i].design_key, single.jobs[i].design_key);
    EXPECT_EQ(jobs[i].total_cycles, single.jobs[i].total_cycles);
    EXPECT_EQ(jobs[i].gflops, single.jobs[i].gflops);
  }
  EXPECT_THROW(runner::parse_report_jobs("{\"schema\":\"bogus\",\"jobs\":[]}"),
               Error);
  EXPECT_THROW(runner::parse_report_jobs("not json"), Error);
}

// ---- end to end with real child processes ----------------------------------

runner::ShardOptions e2e_options(int shards) {
  runner::ShardOptions o;
  o.shards = shards;
  o.runner_binary = HLSPROF_RUN_BIN;
  o.workers_per_shard = 1;
  o.quiet = true;
  // No straggler speculation: under a loaded test machine a shard can
  // exceed the wall-clock threshold and launch a backup, which keeps
  // the output byte-identical but makes launch counts nondeterministic.
  o.straggler_factor = 0.0;
  return o;
}

TEST(ShardE2E, FourShardsByteIdenticalToSingleProcess) {
  const runner::BatchResult single = run_whole(kManifest);
  const runner::ShardResult sharded =
      runner::run_sharded_text(kManifest, e2e_options(4));
  EXPECT_EQ(sharded.label, "shard-suite");
  EXPECT_EQ(sharded.shards_launched, 4);
  EXPECT_EQ(sharded.shards_redispatched, 0);
  EXPECT_EQ(canonical_report(sharded.merged, sharded.label),
            canonical_report(single, sharded.label));
  EXPECT_EQ(canonical_csv(sharded.merged, sharded.label),
            canonical_csv(single, sharded.label));
}

TEST(ShardE2E, KilledShardIsRedispatchedAndOutputUnchanged) {
  const runner::BatchResult single = run_whole(kManifest);
  runner::ShardOptions o = e2e_options(3);
  std::atomic<bool> killed{false};
  o.on_spawn = [&killed](int, int pid) {
    // SIGKILL the first shard the moment it exists; its jobs must come
    // back through a re-dispatched replacement.
    if (!killed.exchange(true)) ::kill(pid_t(pid), SIGKILL);
  };
  const runner::ShardResult sharded = runner::run_sharded_text(kManifest, o);
  EXPECT_GE(sharded.shards_redispatched, 1);
  EXPECT_GE(sharded.shards_launched, 4);
  EXPECT_EQ(canonical_report(sharded.merged, sharded.label),
            canonical_report(single, sharded.label));
}

TEST(ShardE2E, ReaderForwardsOneEventPerJobAndIgnoresChatter) {
  // Shard children that print stray stdout lines — text, JSON that is
  // not a job event, a malformed event — around their real job events.
  const std::string dir = fresh_dir("chatter");
  const std::string wrapper = dir + "/noisy-run.sh";
  {
    std::ofstream f(wrapper);
    f << "#!/bin/sh\n"
         "echo 'plain chatter'\n"
         "echo '{\"event\":\"other\"}'\n"
         "echo '{\"event\":\"job\",\"index\":-4}'\n"
         "exec '" HLSPROF_RUN_BIN "' \"$@\"\n";
  }
  fs::permissions(wrapper, fs::perms::owner_all);
  runner::ShardOptions o = e2e_options(3);
  o.runner_binary = wrapper;
  std::vector<runner::JobEvent> events;
  o.on_job_event = [&events](int, const std::string& line,
                             const runner::JobEvent& e) {
    runner::JobEvent again;
    EXPECT_TRUE(runner::parse_job_event(line, &again)) << line;
    events.push_back(e);
  };
  const runner::ShardResult sharded = runner::run_sharded_text(kManifest, o);
  EXPECT_EQ(canonical_report(sharded.merged, sharded.label),
            canonical_report(run_whole(kManifest), sharded.label));
  std::set<int> indices;
  for (const runner::JobEvent& e : events) indices.insert(e.index);
  EXPECT_EQ(events.size(), sharded.merged.jobs.size());
  EXPECT_EQ(indices.size(), sharded.merged.jobs.size());
}

TEST(ShardE2E, RedispatchBudgetExhaustionFails) {
  runner::ShardOptions o = e2e_options(2);
  o.max_redispatch = 2;
  o.on_spawn = [](int, int pid) { ::kill(pid_t(pid), SIGKILL); };
  EXPECT_THROW(runner::run_sharded_text(kManifest, o), Error);
}

TEST(ShardE2E, WarmSharedCacheFleetCompilesNothing) {
  const std::string cache = fresh_dir("fleet-cache");
  const std::string telemetry = fresh_dir("fleet-telemetry");

  runner::ShardOptions cold = e2e_options(3);
  cold.cache_dir = cache;
  const runner::ShardResult first =
      runner::run_sharded_text(kManifest, cold);

  runner::ShardOptions warm = e2e_options(3);
  warm.cache_dir = cache;
  warm.child_telemetry_prefix = (fs::path(telemetry) / "shard-").string();
  const runner::ShardResult second =
      runner::run_sharded_text(kManifest, warm);

  EXPECT_EQ(canonical_report(first.merged, first.label),
            canonical_report(second.merged, second.label));

  // Every warm child must report zero compiles: all six designs come
  // off the shared disk store the cold fleet populated.
  int snapshots = 0;
  for (const auto& de : fs::directory_iterator(telemetry)) {
    std::ifstream f(de.path());
    std::ostringstream ss;
    ss << f.rdbuf();
    const JsonValue snap = json_parse(ss.str());
    ++snapshots;
    const JsonValue* counters = snap.find("counters");
    ASSERT_NE(counters, nullptr);
    const JsonValue* compiles = counters->find("hls.compiles");
    long long n = 0;
    if (compiles != nullptr) {
      const JsonValue* value = compiles->find("value");
      ASSERT_NE(value, nullptr);
      n = value->as_int64();
    }
    EXPECT_EQ(n, 0) << de.path();
  }
  EXPECT_EQ(snapshots, 3);
}

}  // namespace
}  // namespace hlsprof
