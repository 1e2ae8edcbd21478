// Multi-process shard coordinator for the batch runner. Splits a
// manifest's expanded job list into per-shard sub-manifests (via the
// `select` control key), runs each shard in a child `hlsprof-run`
// process — or submits it to a running hlsprof-serve daemon — and
// merges the per-shard canonical reports into one BatchResult whose
// report bytes are identical to a single-process run of the same
// manifest:
//
//  - every selected job keeps its original index and index-derived
//    seed, so each shard produces the exact slice a full run would;
//  - merged cache counters are rebased (rebase_cache_stats), the same
//    deterministic accounting the serving daemon reports, equal to a
//    cold single-process run's real counters;
//  - shards run --canonical, so no wall-clock ever reaches the bytes.
//
// Fault handling: a shard that dies (non-zero exit, signal, unreadable
// report) has its not-yet-merged jobs re-dispatched to a fresh shard; a
// straggler (elapsed beyond a configurable multiple of the median
// completed-shard wall time) gets a speculative backup shard for its
// outstanding jobs while the original keeps running. Whichever copy of
// a job reports first wins; later copies are counted as duplicates and
// dropped — safe because job content is deterministic, so every copy
// carries identical bytes. See docs/SHARDING.md.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "runner/batch.hpp"

namespace hlsprof::runner {

enum class ShardStrategy {
  /// Contiguous index ranges (cheapest sub-manifests to eyeball).
  block,
  /// Index i goes to shard i % shards (default: manifests commonly
  /// order jobs by increasing size, so striping balances better).
  round_robin,
};

/// Parse "block" / "round_robin" (also accepts "round-robin"); throws
/// hlsprof::Error on anything else.
ShardStrategy shard_strategy_from_name(const std::string& name);

struct ShardOptions {
  /// Number of shards to launch for the initial split (>= 1).
  int shards = 2;
  ShardStrategy strategy = ShardStrategy::round_robin;

  /// Straggler threshold: once at least two shards have finished, a
  /// still-running shard whose elapsed time exceeds
  /// `straggler_factor * median(finished shard wall times)` (and
  /// `straggler_min_ms`) gets one speculative backup shard for its
  /// outstanding jobs. 0 disables speculation. Process mode only — a
  /// daemon submission cannot be abandoned mid-flight, so daemon mode
  /// re-dispatches on failure but never speculates.
  double straggler_factor = 3.0;
  /// Floor below which a shard is never called a straggler, so tiny
  /// batches don't speculate on scheduling noise.
  double straggler_min_ms = 500.0;

  /// Re-dispatch budget (dead shards + speculative backups combined);
  /// 0 = 2 * shards. Exhausting it fails the run rather than looping
  /// on a persistent fault.
  int max_redispatch = 0;

  /// Non-empty: daemon mode. Shards are submitted to these
  /// hlsprof-serve sockets round-robin instead of spawning child
  /// processes; `submit` must then be set.
  std::vector<std::string> connect;
  /// Daemon submission hook: send `manifest_text` to the daemon at
  /// `socket` as `client_name` and return the canonical report JSON;
  /// throw hlsprof::Error (or serve::ConnectError) on failure. Injected
  /// by the tool layer so this library does not depend on serve.
  std::function<std::string(const std::string& socket,
                            const std::string& manifest_text,
                            const std::string& client_name)>
      submit;

  /// Process mode: the hlsprof-run binary to exec for each shard.
  /// Empty = this process's own image (/proc/self/exe).
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

  /// Non-empty, process mode: each shard child writes its telemetry
  /// snapshot to `<prefix><shard-id>.json` (--telemetry-out), so fleet
  /// behaviour — e.g. zero hls.compiles across a warm shared-cache run —
  /// is observable per child. Telemetry never touches report bytes.
  std::string child_telemetry_prefix;

  /// Suppress per-job progress lines on stderr.
  bool quiet = false;

  /// Progress sink replacing the default stderr writer: each call hands
  /// over one batch of already-newline-terminated progress lines
  /// (possibly several at once — the coordinator batches per event-loop
  /// drain and writes each batch atomically). Called on the coordinator
  /// thread. Null = write batches to stderr.
  std::function<void(const std::string& lines)> emit_progress;

  /// Process mode: called on the coordinator thread with the job events
  /// shard children print (their --progress stream), the raw line
  /// included, so a caller can forward it unchanged or fold it. Only the
  /// first copy of each job index is passed on: a re-dispatched or
  /// speculative shard re-announcing a job is dropped here.
  std::function<void(int shard, const std::string& line, const JobEvent& e)>
      on_job_event;

  /// Non-empty, process mode: every shard child additionally writes a
  /// Chrome/Perfetto trace of its own telemetry, and the coordinator
  /// merges all child traces plus its own into ONE file at this path —
  /// per-shard tracks namespaced ("shard-K"), child clocks rebased onto
  /// the coordinator's telemetry epoch so the fleet timeline lines up.
  /// Ignored in daemon mode (daemons outlive the submission; their
  /// telemetry belongs to the daemon, not the run).
  std::string chrome_trace_out;

  /// Test hook, process mode: called right after each fork with the
  /// shard id and child pid (e.g. to SIGKILL a shard mid-run and prove
  /// re-dispatch). Called on the coordinator thread.
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
  int shards_redispatched = 0;  // dead-shard replacements + backups
  int duplicate_jobs = 0;       // dropped later copies of merged jobs
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

/// Partition `universe` (ascending job indices) into `shards` disjoint,
/// covering index lists; entries may be empty when there are fewer jobs
/// than shards (empty shards are simply not launched).
std::vector<std::vector<int>> split_indices(const std::vector<int>& universe,
                                            int shards,
                                            ShardStrategy strategy);

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
/// Throws hlsprof::Error on schema mismatches.
std::vector<JobResult> parse_report_jobs(const std::string& report_json_text);

/// Merge per-shard job lists into one result covering exactly
/// `expected_indices` (ascending original indices). Shards are
/// consumed in list order and the first copy of each index wins;
/// later copies count into `*duplicates` (may be null). Deterministic
/// because duplicate copies of a job are byte-identical. Cache
/// counters are rebased. Throws if any expected index never appears.
BatchResult merge_job_results(
    const std::vector<std::vector<JobResult>>& per_shard,
    const std::vector<int>& expected_indices, int* duplicates = nullptr);

}  // namespace hlsprof::runner
