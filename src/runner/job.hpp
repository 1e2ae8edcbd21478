// Job descriptions and results for the batch runner. A JobSpec is a
// self-contained recipe — kernel factory, compile options, run options,
// buffer binding, optional result check — so the scheduler can execute it
// on any worker thread. A JobResult is the flattened, report-ready metric
// record the JSON/CSV layer serializes.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/hlsprof.hpp"

namespace hlsprof::runner {

/// Keep-alive storage for host buffers bound into a simulator. Spans bound
/// via Simulator::bind_* must outlive run(); allocating through this pool
/// ties buffer lifetime to the job execution, and the check callback can
/// read results back out afterwards. Deques keep element addresses stable
/// across allocations.
class HostBuffers {
 public:
  std::vector<float>& f32(std::vector<float> init) {
    f32_.push_back(std::move(init));
    return f32_.back();
  }
  std::vector<float>& f32(std::size_t n, float fill = 0.0f) {
    return f32(std::vector<float>(n, fill));
  }
  std::vector<double>& f64(std::vector<double> init) {
    f64_.push_back(std::move(init));
    return f64_.back();
  }
  std::vector<std::int32_t>& i32(std::vector<std::int32_t> init) {
    i32_.push_back(std::move(init));
    return i32_.back();
  }
  std::vector<std::int64_t>& i64(std::vector<std::int64_t> init) {
    i64_.push_back(std::move(init));
    return i64_.back();
  }

  /// i-th f32 buffer in allocation order — lets a check callback reach
  /// buffers its bind callback allocated without shared captured state.
  std::vector<float>& f32_at(std::size_t i) { return f32_.at(i); }

 private:
  std::deque<std::vector<float>> f32_;
  std::deque<std::vector<double>> f64_;
  std::deque<std::vector<std::int32_t>> i32_;
  std::deque<std::vector<std::int64_t>> i64_;
};

/// One run in a batch. All callbacks must be thread-compatible: they are
/// invoked from one worker thread at a time, but different jobs run
/// concurrently, so they must not share mutable state without locking.
struct JobSpec {
  std::string name;

  /// Builds the kernel IR. The RNG is seeded deterministically per job
  /// (see Batch), so randomized kernels reproduce across runs and worker
  /// counts. Throwing (e.g. IR verification failure) marks the job failed.
  std::function<ir::Kernel(SplitMix64&)> kernel;

  /// HLS compile options — part of the design-cache key.
  hls::HlsOptions hls;

  core::RunOptions run;

  /// Bind buffers / scalar args before the run. Allocate host memory
  /// through HostBuffers so it outlives the simulation.
  std::function<void(core::Session&, HostBuffers&, SplitMix64&)> bind;

  /// Optional verification after the run; throw hlsprof::Error (or any
  /// exception) to mark the job failed.
  std::function<void(const core::RunResult&, HostBuffers&)> check;

  /// 0 = derive from the batch seed and the job index.
  std::uint64_t seed = 0;

  /// Per-job simulated-cycle budget (the runner's notion of a timeout:
  /// wall-clock kills are not safe for an in-process simulator, but the
  /// simulator aborts deterministically when the budget is exhausted and
  /// the job is reported failed). 0 = keep RunOptions' limit.
  cycle_t max_cycles = 0;

  /// Soft wall-clock budget in milliseconds. The job is never interrupted
  /// (results stay deterministic); exceeding the budget downgrades an ok
  /// result to timed_out in the report. 0 = none.
  double soft_timeout_ms = 0.0;
};

enum class JobStatus { ok, failed, timed_out };

const char* job_status_name(JobStatus s);

/// Flattened per-job record. Everything here is deterministic except
/// wall_ms and cache_hit (which job of several sharing a design performs
/// the one compile depends on scheduling); reports in canonical mode omit
/// those fields.
struct JobResult {
  int index = -1;
  std::string name;
  JobStatus status = JobStatus::ok;
  std::string error;  // failure/timeout message
  std::uint64_t seed = 0;

  std::uint64_t design_key = 0;  // content hash (0 if compile never ran)
  bool cache_hit = false;
  double wall_ms = 0.0;

  // Design metrics.
  double fmax_mhz = 0.0;
  double alm = 0.0;
  double bram_bits = 0.0;
  int num_threads = 0;

  // Run metrics.
  cycle_t total_cycles = 0;
  cycle_t kernel_cycles = 0;
  cycle_t stall_cycles = 0;
  long long fp_ops = 0;
  double gflops = 0.0;  // fp_ops over total_cycles at the design fmax
  double row_hit_rate = 0.0;

  // Trace metrics (zero when profiling was disabled).
  bool has_trace = false;
  double state_idle = 0.0;
  double state_running = 0.0;
  double state_critical = 0.0;
  double state_spinning = 0.0;
  long long state_records = 0;
  long long event_records = 0;
  long long flush_bursts = 0;
  std::uint64_t trace_bytes = 0;
  /// Peak host-side trace residency of the streaming decode pipeline
  /// (largest single flush burst) — bounded by the profiling buffer size,
  /// not the trace length.
  std::uint64_t peak_trace_buffer_bytes = 0;
  double overhead_alm_pct = 0.0;
  double overhead_register_pct = 0.0;
  // Exact trace totals for the job event (job_event.hpp); not part of
  // the report. Thread-cycles per state (idle, running, critical,
  // spinning) and traced DRAM bytes read + written.
  std::array<std::uint64_t, 4> state_cycles{};
  std::uint64_t trace_dram_bytes = 0;
};

}  // namespace hlsprof::runner
