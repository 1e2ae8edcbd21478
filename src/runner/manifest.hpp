// Text manifests describing a parameter sweep, consumed by the
// `hlsprof-run` CLI and by tests. Line-based `key = value` format, `#`
// comments; list-valued keys (comma-separated) are swept as a cross
// product, in declared key order, so job order — and therefore report
// content — is a pure function of the manifest.
//
//   # GEMM thread sweep (paper §V-A saturation study)
//   workload = gemm
//   version  = vectorized
//   dim      = 128
//   threads  = 1,2,4,8,16
//   profiling = off
//   workers  = 8
//   verify   = on
//   out      = gemm_threads
//
// Supported workloads: gemm (versions naive|no_critical|vectorized|
// blocked|double_buffered|preloaded), pi, vecadd, dot. Sweepable keys:
// version, dim, threads, block, vector_len, steps, unroll, n,
// sampling_period, buffer_lines, thread_reordering. Scalar keys:
// workload, profiling (on|off), thread_start_interval, max_cycles,
// workers, seed, verify (on|off), out, label, cache_dir,
// cache_max_bytes (the persistent design-cache location and LRU cap —
// see docs/CACHING.md; CLI --cache-dir/--cache-max-bytes override).
// Integer keys are range-checked: sizes and counts >= 1, workers, seed,
// thread_start_interval, max_cycles and cache_max_bytes >= 0, and keys
// held in an `int` or a 32-bit kernel value <= INT_MAX.
#pragma once

#include <string>

#include "runner/batch.hpp"

namespace hlsprof::runner {

struct ManifestRun {
  Batch batch;
  BatchOptions options;
  std::string label;       // defaults to the workload name
  std::string out_prefix;  // empty = caller decides (stdout only)
};

/// Parse manifest text. Throws hlsprof::Error on unknown keys, malformed
/// values, or unsupported workloads — with the offending line quoted.
ManifestRun parse_manifest(const std::string& text);

/// Read and parse a manifest file. A relative `out` prefix is resolved
/// against the manifest file's directory, so report and telemetry
/// sidecars land next to the manifest instead of the process CWD.
ManifestRun load_manifest(const std::string& path);

/// Switch an already-parsed run to approximate fast-forward mode, exactly
/// as `approx_trace = on` in the manifest would have: every job gets
/// SimParams::fast_forward and loses its functional check (skipped
/// iterations do not execute, so outputs are not meaningful). Backs the
/// CLI --approx-trace override.
void apply_approx_trace(ManifestRun& run);

}  // namespace hlsprof::runner
