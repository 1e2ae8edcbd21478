// The batch API: a list of JobSpecs executed across a worker pool with a
// shared design cache. Results are indexed by submission order and every
// job's RNG seed is derived from (batch seed, job index), so the metric
// content of a BatchResult is identical for any worker count — only
// wall-clock fields and which-job-compiled attribution vary.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "runner/design_cache.hpp"
#include "runner/job.hpp"
#include "runner/job_event.hpp"

namespace hlsprof::runner {

struct BatchOptions {
  /// 0 = one worker per hardware thread.
  int workers = 0;
  /// Base seed; job i runs with SplitMix64 seeded from (seed, i) unless
  /// its spec pins an explicit seed.
  std::uint64_t seed = 1;
  /// Share a cache across batches (e.g. a sweep driver reusing designs);
  /// null = a batch-local cache.
  DesignCache* cache = nullptr;
  /// Non-empty: attach a persistent on-disk tier (DiskDesignStore) at
  /// this directory to the cache the run uses, so compiled designs
  /// survive the process and a warm re-run performs zero compiles. A
  /// shared cache that already has a disk tier keeps it (the directory
  /// here is ignored in that case).
  std::string cache_dir;
  /// LRU size cap for the on-disk tier (bytes, evicted on open);
  /// 0 = unbounded. Only meaningful with a non-empty cache_dir.
  std::uint64_t cache_max_bytes = 0;
  /// Called once per finished job with its job event (job_event.hpp;
  /// `done` counts this run's finished jobs, `jobs` the batch size), from
  /// the worker thread that ran it. Calls never overlap and arrive in
  /// `done` order, so a streamed event line never overtakes an earlier
  /// one. Null = off.
  std::function<void(const JobEvent&)> on_job_event;
  /// Live view of each running job's timeline fold: installed as the
  /// job's core::RunOptions::trace_progress with the job index and name
  /// bound. Called on the job's worker thread. Null = off.
  std::function<void(int index, const std::string& name,
                     const trace::TimedTraceBuilder&)>
      on_trace;
};

struct BatchResult {
  std::vector<JobResult> jobs;  // index order == Batch::add() order
  int workers = 0;
  double wall_ms = 0.0;
  long long cache_hits = 0;
  long long cache_misses = 0;

  int count(JobStatus s) const;
  bool all_ok() const { return count(JobStatus::ok) == int(jobs.size()); }
};

class Batch {
 public:
  /// Returns the job's index (== its position in BatchResult::jobs).
  int add(JobSpec spec);

  std::size_t size() const { return jobs_.size(); }
  const JobSpec& spec(int index) const { return jobs_.at(std::size_t(index)); }
  /// Mutable access for post-parse overrides (e.g. the CLI's
  /// --approx-trace rewriting manifest-built jobs before run()).
  JobSpec& spec_mut(int index) { return jobs_.at(std::size_t(index)); }

  /// Execute every job. Job failures (exceptions anywhere in the factory /
  /// compile / run / check chain) are captured into the corresponding
  /// JobResult; run() itself only throws on runner-internal errors.
  /// `const` on purpose: the same batch can run repeatedly (e.g. at
  /// different worker counts) with identical results.
  BatchResult run(const BatchOptions& options = BatchOptions{}) const;

  /// Deterministic seed of job `index` under batch seed `base`.
  static std::uint64_t job_seed(std::uint64_t base, int index);

 private:
  std::vector<JobSpec> jobs_;
};

}  // namespace hlsprof::runner
