// Analytical fast-forward tier for steady-state memory-bound pipelined
// loop phases (SimParams::fast_forward, docs/PERF.md).
//
// Unit of prediction: one *instance* of a pipelined simple-body loop
// (e.g. one full k-walk of a GEMM inner loop). Instance cost in the
// memory model is piecewise-constant: it is fixed by the address
// geometry of the instance's streams — each op's start offset within a
// controller line, its bank phase, its stride, and how many DRAM row
// boundaries the walk crosses — and shifts only when that geometry
// shifts (a start address crossing a line or row boundary, an outer
// index moving a stream to a new row). So instead of extrapolating a
// sampled rate, the tier *calibrates*: it runs one instance of each
// geometry exactly, records how many cycles the prologue / middle span
// / tail took and the row-hit count of the span, and caches the record
// under a signature of that geometry. Later instances whose signature
// matches run only `kPrologueIters` real iterations (verifying strides
// and comparing the prologue's real cost against the calibrated one —
// the probe), then jump the loop frame over the middle span charging
// the *calibrated exact* span cycles, and finish with `kMarginIters`
// real iterations so pipeline-drain and loop-exit timing come from
// executed code. A probe mismatch falls back to executing the instance
// exactly, which re-calibrates the signature — the tier self-heals
// instead of drifting.
//
// Each calibration is cross-checked once against the analytical DRAM
// bound derived from DramParams (predict_cpi): a steady rate the model
// cannot explain from the memory parameters is not memory-governed
// (e.g. dominated by contention the geometry does not capture), and
// such instances execute exactly.
//
// The jump itself (advancing the loop frame, synthesizing hook spans,
// shifting the memory model) lives in sim::Thread; this module only
// holds the calibration state machine and the analytical model.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "sim/params.hpp"

namespace hlsprof::sim::ff {

// ---- tuning values of the tier (docs/PERF.md) ----------------------------

/// Real iterations at the start of every predicted instance: they verify
/// the per-op address strides and act as the probe whose real cost must
/// match the calibration's prologue cost. A stride needs two.
inline constexpr std::int64_t kPrologueIters = 2;
/// Real iterations left to run after a jump, so pipeline-drain and
/// loop-exit timing come from executed code.
inline constexpr std::int64_t kMarginIters = 1;
/// Probe tolerance: the real prologue may differ from the calibrated one
/// by kProbeRelTol * calibrated + kProbeAbsSlack cycles before the
/// instance falls back to an exact (re-calibrating) run. Kept tight on
/// purpose — in a truly steady segment the prologue repeats exactly, and
/// a single migrated row miss (~row_miss_penalty cycles) must trip the
/// probe rather than be absorbed.
inline constexpr double kProbeRelTol = 0.01;
inline constexpr double kProbeAbsSlack = 2.0;
/// Gate on the analytical model: a calibration's measured span rate must
/// be within this relative residual of the DramParams prediction, or the
/// geometry is not considered memory-governed and its instances are
/// executed exactly.
inline constexpr double kModelGate = 0.5;
/// Jumps shorter than this are not worth the bookkeeping.
inline constexpr cycle_t kMinSkipCycles = 256;
/// Calibration-cache capacity per loop per thread; exceeding it (a
/// pathological geometry churn) clears the cache and starts over.
inline constexpr std::size_t kMaxCacheEntries = 256;

/// Address tracking for one external-memory op of the loop body.
struct OpTrack {
  std::uint32_t bytes = 0;
  bool is_write = false;

  // -- current instance ---------------------------------------------------
  addr_t inst_start = 0;    // first address this instance
  addr_t last_addr = 0;     // most recent address this instance
  std::int64_t stride = 0;  // per-iteration address delta this instance
  bool have_stride = false;

  // -- instance-to-instance continuity ------------------------------------
  addr_t prev_start = 0;        // previous instance's first address
  bool have_prev_start = false;
  std::int64_t prev_delta = 0;  // previous instance-to-instance start delta
  bool have_prev_delta = false;
  /// This instance's start delta equals the previous one's (the stream
  /// is sliding uniformly, e.g. GEMM's B column walk moving 4 bytes per
  /// j) — the segment continues and the current calibration still
  /// describes it, no cache lookup needed.
  bool delta_stable = false;
  /// The start address moved to a different controller line than the
  /// previous instance's start: the hit/miss phase of the walk may have
  /// shifted even under a stable delta.
  bool line_crossed = true;
};

/// One calibrated instance: the exact cycle split of a full instance of
/// a given address geometry, reusable for every later instance whose
/// signature (and probe) matches.
struct Calibration {
  bool valid = false;
  bool model_ok = false;        // passed the analytical DRAM gate
  double model_residual = 0.0;  // |predict - measured| / measured
  double hit_rate = 0.0;        // span row-hit fraction (model input)
  std::int64_t n_iters = 0;     // trip count it was calibrated at
  std::int64_t span_iters = 0;  // n_iters - prologue - margin
  cycle_t pro_cycles = 0;       // iterations [0, prologue)
  cycle_t span_cycles = 0;      // iterations [prologue, n - margin)
  long long span_hits = 0;      // row hits among the span's requests
  std::vector<std::int64_t> strides;  // per-op per-iteration stride
};

/// Calibration state for one pipelined simple-body loop (per thread).
struct LoopPhase {
  // -- structural census, filled once by the thread ------------------------
  bool eligible = false;  // pipelined, >=1 ext op, no preloads
  std::vector<OpTrack> ops;  // external ops in body order
  long long loads_per_iter = 0;
  long long stores_per_iter = 0;
  std::uint64_t bytes_read_per_iter = 0;
  std::uint64_t bytes_written_per_iter = 0;
  bool census_done = false;  // int/fp lanes measured empirically
  long long int_per_iter = 0;
  long long fp_per_iter = 0;
  // DRAM geometry snapshot for signatures (from DramParams).
  addr_t line_bytes = 64;
  addr_t row_bytes = 2048;
  int num_banks = 4;

  // -- decline backoff ----------------------------------------------------
  // While another thread's pending event keeps the horizon close (threads
  // overlapping), every validated jump is declined; tracking each
  // iteration anyway is pure overhead. After `decline_streak` reaches
  // kDeclineBackoff consecutive declines the phase goes dormant for
  // kDormantInstances instances (zero per-iteration cost), then wakes to
  // try again — so a thread left running solo resumes jumping within a
  // bounded number of instances.
  static constexpr int kDeclineBackoff = 4;
  static constexpr int kDormantInstances = 64;
  int decline_streak = 0;
  int dormant = 0;

  // -- current instance ---------------------------------------------------
  bool inst_active = false;   // observed contiguously from iteration 0
  bool calibrating = false;   // recording this instance as a Calibration
  bool jumped = false;        // a jump was applied this instance
  bool strides_broken = false;
  std::int64_t n_iters = 0;   // trip count of this instance
  std::int64_t iter_index = 0;  // index of the iteration in flight
  std::size_t cursor = 0;       // next expected ext op this iteration
  bool iter_ok = false;         // iteration observed from its start
  bool expect_valid = false;    // expect_iv holds the next contiguous iv
  std::int64_t expect_iv = 0;
  cycle_t pro_cycles = 0;   // accumulators mirroring Calibration's split
  cycle_t span_cycles = 0;
  cycle_t tail_cycles = 0;
  long long span_hits = 0;

  // -- in-instance periodic windows ---------------------------------------
  // A single long instance (one streaming pass over an array — stencil,
  // vecadd) never repeats, so instance-level calibration alone cannot
  // fast-forward it. When the remaining span fits several windows of
  // `intra_w` iterations — the LCM of each stream's row period, so every
  // stream advances a whole number of DRAM rows per window — the tier
  // measures two consecutive windows exactly; matching cycle and hit
  // counts prove the pattern periodic, and a synthetic calibration
  // skipping k whole windows reuses the normal jump machinery.
  bool intra_active = false;
  std::int64_t intra_w = 0;  // window length in iterations
  cycle_t win1_cycles = 0;
  cycle_t win2_cycles = 0;
  long long win1_hits = 0;
  long long win2_hits = 0;
  /// Set when end_iteration returns a jump whose calibration has not
  /// been model-gated yet (fresh in-instance window): the thread
  /// must run the gate and only jump if model_ok.
  bool cand_needs_gate = false;

  // -- calibration cache --------------------------------------------------
  std::uint64_t pending_sig = 0;      // where a new calibration lands
  Calibration* cand = nullptr;        // current segment's calibration
  std::unordered_map<std::uint64_t, Calibration> cache;

  /// A new instance of the loop is starting (the executor is at the
  /// first iteration's first op, induction at its initial value).
  void begin_instance(std::int64_t n);

  /// An iteration is starting with induction value `iv`; `from_start`
  /// is false when the executor re-entered mid-iteration (an op already
  /// took the generic path).
  void begin_iteration(std::int64_t iv, bool from_start);

  /// One external request of the current iteration committed inline.
  void note_mem(addr_t addr, bool row_hit);

  /// The iteration with induction value `iv` finished after
  /// `iter_cycles` cycles, executing `iter_int`/`iter_fp` lane-ops.
  /// Returns true when the prologue just validated against a calibrated
  /// instance (signature, strides and probe all match) and the caller
  /// should jump using `cand`.
  bool end_iteration(std::int64_t iv, std::int64_t step, cycle_t iter_cycles,
                     long long iter_int, long long iter_fp);

  /// The instance's final iteration (cycles `final_iter_cycles`) just
  /// completed and the loop is exiting. Returns true when a calibration
  /// was completed and stored in `cand` — the caller must then gate it
  /// against the analytical model (fill model_ok / model_residual).
  bool finish_instance(cycle_t final_iter_cycles);

  /// A jump of `skipped` iterations was applied; resume tracking at
  /// `new_iv` with per-op addresses advanced to the last skipped
  /// iteration's (so the memory model can re-open their rows).
  void after_jump(std::int64_t new_iv, std::int64_t skipped);

  /// The thread could not apply the validated jump (batching
  /// horizon or livelock guard too close): degrade the instance to a
  /// fresh calibration run so the cycles still get re-measured.
  void jump_declined();

  /// Stop tracking the current instance (an op escaped to the generic
  /// path, or iterations became non-contiguous).
  void invalidate_instance();

  /// Geometry signature of the current instance (requires strides, i.e.
  /// callable from the end of iteration 1 onward).
  std::uint64_t signature() const;

  /// In-instance window length: LCM of the streams' row periods, or 0
  /// when no reasonable period exists.
  std::int64_t intra_window() const;
};

/// Per-thread fast-forward statistics (one "phase" per applied jump).
struct FfStats {
  std::uint64_t phases = 0;
  std::uint64_t cycles_skipped = 0;
  double residual_sum = 0.0;  // sum of model residuals over phases
  std::uint64_t model_rejects = 0;
};

/// Analytical steady-state cycles-per-iteration from DramParams: the max
/// of the compute bound (ii plus per-read latency overrun beyond the
/// scheduler's assumed minimum, at the observed row-hit mix), the bus
/// acceptance bound, and the bank occupancy bound with streams spread
/// over the banks by row interleaving. `stall_multiplier` mirrors the
/// C-slow model of apply_mem (num_threads without thread reordering).
double predict_cpi(const DramParams& dram, const LoopPhase& ph, int ii,
                   int ext_assumed_min, int stall_multiplier, double hit_rate);

}  // namespace hlsprof::sim::ff
