// Multi-process shard coordinator for the batch runner. Splits a
// manifest's expanded job list round-robin into per-shard sub-manifests
// (via the `select` control key), runs each shard in a child
// `hlsprof-run` process, and merges the per-shard canonical reports into
// one BatchResult whose report bytes are identical to a single-process
// run of the same manifest:
//
//  - every selected job keeps its original index and index-derived
//    seed, so each shard produces the exact slice a full run would;
//  - merged cache counters are rebased (rebase_cache_stats), the same
//    deterministic accounting the serving daemon reports, equal to a
//    cold single-process run's real counters;
//  - shards run --canonical, so no wall-clock ever reaches the bytes.
//
// Fault handling: a shard that dies (non-zero exit, signal, unreadable
// report) has its not-yet-delivered jobs re-dispatched to a fresh shard
// once it has exited, so no job is ever held by two live shards. See
// docs/SHARDING.md.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "runner/batch.hpp"

namespace hlsprof::runner {

struct ShardOptions {
  /// Number of shards to launch for the initial split (>= 1). Up to
  /// 2 * shards dead shards are re-dispatched; one more fails the run
  /// rather than looping on a persistent fault.
  int shards = 2;

  /// The hlsprof-run binary to exec for each shard. Empty = this
  /// process's own image (/proc/self/exe).
  std::string runner_binary;

  /// Forwarded to every shard so the fleet shares one on-disk design
  /// store (the store is multi-process safe by construction). Empty =
  /// whatever the manifest says.
  std::string cache_dir;
  std::uint64_t cache_max_bytes = 0;

  /// Worker threads per shard child; 0 = hardware concurrency divided
  /// by the shard count (at least 1), so the fleet does not oversubscribe.
  int workers_per_shard = 0;

  /// >= 0: override the manifest's batch seed (like --seed).
  long long seed_override = -1;

  /// Force `approx_trace = on` in every sub-manifest (like the CLI's
  /// --approx-trace): shards run in analytical fast-forward mode with
  /// functional verification disabled.
  bool approx_trace = false;

  /// Non-empty: each shard child writes its telemetry snapshot to
  /// `<prefix><shard-id>.json` (--telemetry-out), so fleet behaviour —
  /// e.g. zero hls.compiles across a warm shared-cache run — is
  /// observable per child. Telemetry never touches report bytes.
  std::string child_telemetry_prefix;

  /// Suppress the re-dispatch notes on stderr.
  bool quiet = false;

  /// Called on the coordinator thread with the job events shard children
  /// print (their --progress stream), the raw line included, so a caller
  /// can forward it unchanged or fold it. Only the first copy of each job
  /// index is passed on: a re-dispatched shard re-announcing a job its
  /// dead predecessor already announced is dropped here.
  std::function<void(int shard, const std::string& line, const JobEvent& e)>
      on_job_event;

  /// Non-empty: every shard child additionally writes a Chrome/Perfetto
  /// trace of its own telemetry, and the coordinator merges all child
  /// traces plus its own into ONE file at this path — per-shard tracks
  /// namespaced ("shard-K"), child clocks rebased onto the coordinator's
  /// telemetry epoch so the fleet timeline lines up.
  std::string chrome_trace_out;

  /// Test hook: called right after each fork with the shard id and child
  /// pid (e.g. to SIGKILL a shard mid-run and prove re-dispatch). Called
  /// on the coordinator thread.
  std::function<void(int shard, int pid)> on_spawn;
};

struct ShardResult {
  /// Jobs in original index order, cache counters rebased. workers /
  /// wall_ms describe the fleet (total child workers, coordinator
  /// wall) and never reach canonical report bytes.
  BatchResult merged;
  std::string label;       // from the manifest
  std::string out_prefix;  // from the manifest (CLI may override)
  int shards_launched = 0;      // including re-dispatched ones
  int shards_redispatched = 0;  // replacements for dead shards
};

/// Run `manifest_text` sharded. Throws hlsprof::Error on coordinator
/// failures (unrunnable binary, re-dispatch budget exhausted, a job
/// that no shard ever delivered); per-job failures land in the merged
/// result like any batch run.
ShardResult run_sharded_text(const std::string& manifest_text,
                             const ShardOptions& options);

/// load_manifest + run_sharded_text.
ShardResult run_sharded(const std::string& manifest_path,
                        const ShardOptions& options);

// ---- building blocks (exposed for tests) -------------------------------

/// Partition `universe` (ascending job indices) round-robin into `shards`
/// disjoint, covering index lists: universe[i] goes to list i % shards.
/// Manifests commonly order jobs by increasing size, so striping balances
/// load. Entries are empty when there are fewer jobs than shards (empty
/// shards are simply not launched).
std::vector<std::vector<int>> split_indices(const std::vector<int>& universe,
                                            int shards);

/// Rewrite manifest text for one shard: drop any existing `select`
/// (its values are original indices — the shard's own selection
/// replaces, never composes with, a previous one), drop `out` (shards
/// must not clobber the user's report files), drop `seed` when
/// `seed_override` >= 0, then append the shard's `select` line (and
/// `seed`, and `approx_trace = on` when `approx_trace` is set). Indices
/// must be non-empty and ascending.
std::string make_sub_manifest(const std::string& manifest_text,
                              const std::vector<int>& indices,
                              long long seed_override = -1,
                              bool approx_trace = false);

/// Parse a canonical batch-report JSON document (report_json output)
/// back into per-job results. Exact: seeds and design keys round-trip
/// through the report's uint64/hex encodings, doubles through %.17g.
/// The report comes from another process, so it is untrusted: throws
/// hlsprof::Error on schema mismatches and on out-of-range fields.
std::vector<JobResult> parse_report_jobs(const std::string& report_json_text);

/// Merge per-shard job lists into one result covering exactly
/// `expected_indices` (ascending original indices). Shards are
/// consumed in list order and the first copy of each index wins, so a
/// faulty child repeating a job cannot change the result. Cache
/// counters are rebased. Throws if a job index is unexpected or any
/// expected index never appears.
BatchResult merge_job_results(
    const std::vector<std::vector<JobResult>>& per_shard,
    const std::vector<int>& expected_indices);

}  // namespace hlsprof::runner
