#include "sim/fastforward.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace hlsprof::sim::ff {

void LoopPhase::begin_instance(std::int64_t n) {
  if (inst_active && iter_index == 0) return;  // re-entry at iteration 0
  if (dormant > 0) {
    // Decline backoff: sit out this instance entirely (the thread
    // drops its phase pointer, so not even per-iteration tracking runs).
    --dormant;
    inst_active = false;
    for (OpTrack& ot : ops) {
      ot.have_prev_start = false;  // deltas across a gap are meaningless
      ot.have_prev_delta = false;
    }
    return;
  }
  inst_active = eligible;
  calibrating = false;
  jumped = false;
  strides_broken = false;
  n_iters = n;
  iter_index = 0;
  cursor = 0;
  iter_ok = false;
  expect_valid = false;
  pro_cycles = 0;
  span_cycles = 0;
  tail_cycles = 0;
  span_hits = 0;
  intra_active = false;
  intra_w = 0;
  win1_cycles = 0;
  win2_cycles = 0;
  win1_hits = 0;
  win2_hits = 0;
  cand_needs_gate = false;
  for (OpTrack& ot : ops) {
    ot.have_stride = false;
    ot.delta_stable = false;
    ot.line_crossed = true;
  }
}

void LoopPhase::begin_iteration(std::int64_t iv, bool from_start) {
  if (!from_start) {
    // Mid-iteration re-entry: part of this iteration already ran through
    // the generic path, so its observations are incomplete.
    iter_ok = false;
    return;
  }
  if (inst_active && iter_index > 0 && (!expect_valid || iv != expect_iv)) {
    invalidate_instance();  // a gap of generic-path iterations
  }
  iter_ok = true;
}

void LoopPhase::note_mem(addr_t addr, bool row_hit) {
  if (!inst_active) return;
  if (cursor >= ops.size()) {
    iter_ok = false;  // more requests than the body census
    return;
  }
  OpTrack& ot = ops[cursor++];
  if (iter_index == 0) {
    // Instance start: capture the stream's new origin and classify the
    // boundary against the previous instance's origin.
    ot.inst_start = addr;
    if (ot.have_prev_start) {
      const std::int64_t d = std::int64_t(addr) - std::int64_t(ot.prev_start);
      ot.delta_stable = ot.have_prev_delta && d == ot.prev_delta;
      ot.line_crossed = addr / line_bytes != ot.prev_start / line_bytes;
      ot.prev_delta = d;
      ot.have_prev_delta = true;
    }
    ot.prev_start = addr;
    ot.have_prev_start = true;
  } else {
    const std::int64_t d = std::int64_t(addr) - std::int64_t(ot.last_addr);
    if (ot.have_stride) {
      if (d != ot.stride) strides_broken = true;
    } else {
      ot.stride = d;
      ot.have_stride = true;
    }
  }
  ot.last_addr = addr;
  if (iter_index >= kPrologueIters && iter_index < n_iters - kMarginIters) {
    span_hits += row_hit ? 1 : 0;
  }
  if (intra_active && iter_index >= kPrologueIters) {
    if (iter_index < kPrologueIters + intra_w) {
      win1_hits += row_hit ? 1 : 0;
    } else if (iter_index < kPrologueIters + 2 * intra_w) {
      win2_hits += row_hit ? 1 : 0;
    }
  }
}

std::uint64_t LoopPhase::signature() const {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(std::uint64_t(n_iters));
  for (const OpTrack& ot : ops) {
    mix(std::uint64_t(ot.bytes) | (ot.is_write ? 1ull << 32 : 0));
    mix(std::uint64_t(ot.stride));
    mix(std::uint64_t(ot.inst_start % line_bytes));
    // Bank identity: rows interleave across banks (memory.cpp), so the
    // stream's starting bank — which other streams it conflicts with —
    // is a function of its starting row.
    mix(std::uint64_t((ot.inst_start / row_bytes) %
                      addr_t(std::max(1, num_banks))));
    // Row-boundary crossings of the whole walk: how many times the
    // stream re-activates a row, the dominant cost step of a segment.
    const std::int64_t span = ot.stride * (n_iters - 1);
    const std::int64_t lo =
        std::min<std::int64_t>(std::int64_t(ot.inst_start),
                               std::int64_t(ot.inst_start) + span);
    const std::int64_t hi =
        std::max<std::int64_t>(std::int64_t(ot.inst_start),
                               std::int64_t(ot.inst_start) + span) +
        std::int64_t(ot.bytes);
    const std::int64_t crossings = hi / std::int64_t(row_bytes) -
                                   lo / std::int64_t(row_bytes);
    mix(std::uint64_t(crossings));
    if (crossings > 0) {
      // Multi-row walks also care *where* in a row they start: the
      // line phase sets at which iterations the re-activations (and the
      // bank handoffs they imply) land. Single-row walks are phase-
      // insensitive — only their bank matters — and excluding the phase
      // for them is what lets a sliding outer index reuse one record.
      mix(std::uint64_t((ot.inst_start % row_bytes) / line_bytes));
    }
  }
  return h;
}

bool LoopPhase::end_iteration(std::int64_t iv, std::int64_t step,
                              cycle_t iter_cycles, long long iter_int,
                              long long iter_fp) {
  const bool full = iter_ok && cursor == ops.size();
  cursor = 0;
  iter_ok = false;
  if (!inst_active) return false;
  if (!full) {
    invalidate_instance();
    return false;
  }
  if (!census_done) {
    int_per_iter = iter_int;
    fp_per_iter = iter_fp;
    census_done = true;
  }
  expect_valid = true;
  expect_iv = iv + step;
  const std::int64_t k = iter_index++;
  if (k < kPrologueIters) {
    pro_cycles += iter_cycles;
  } else if (k < n_iters - kMarginIters) {
    span_cycles += iter_cycles;
  } else {
    tail_cycles += iter_cycles;
  }
  if (intra_active && k >= kPrologueIters) {
    if (k < kPrologueIters + intra_w) {
      win1_cycles += iter_cycles;
    } else if (k < kPrologueIters + 2 * intra_w) {
      win2_cycles += iter_cycles;
      if (k == kPrologueIters + 2 * intra_w - 1) {
        intra_active = false;
        // Two whole-row-aligned windows costing exactly the same cycles
        // and row hits prove the pattern periodic with period intra_w;
        // synthesize a calibration over k_jump whole windows and let the
        // normal probe/jump machinery reuse it. Unequal windows mean a
        // transient is still decaying — the instance runs exactly.
        if (win1_cycles == win2_cycles && win1_hits == win2_hits &&
            !strides_broken) {
          const std::int64_t budget =
              n_iters - kMarginIters - (kPrologueIters + 2 * intra_w);
          const std::int64_t k_jump = budget / intra_w;
          if (k_jump >= 1) {
            Calibration c;
            c.valid = true;
            c.model_ok = false;  // gated by the thread before the jump
            c.n_iters = n_iters;
            c.span_iters = k_jump * intra_w;
            c.pro_cycles = pro_cycles;
            c.span_cycles = cycle_t(k_jump) * win2_cycles;
            c.span_hits = k_jump * win2_hits;
            c.strides.reserve(ops.size());
            for (const OpTrack& ot : ops) c.strides.push_back(ot.stride);
            if (cache.size() >= kMaxCacheEntries &&
                cache.find(pending_sig) == cache.end()) {
              cache.clear();
            }
            Calibration& slot = cache[pending_sig];
            slot = std::move(c);
            cand = &slot;
            cand_needs_gate = true;
            return true;  // the thread gates, then jumps from here
          }
        }
      }
    }
  }
  if (k != kPrologueIters - 1) return false;

  // ---- decision point: the prologue just completed ----------------------
  const std::int64_t span_len = n_iters - kPrologueIters - kMarginIters;
  if (span_len <= 0 || strides_broken) return false;  // nothing to skip
  for (const OpTrack& ot : ops) {
    if (!ot.have_stride) return false;  // (kPrologueIters >= 2 sets these)
  }
  pending_sig = signature();
  // Within a segment (every stream sliding by its established delta, no
  // start crossing a line) the current calibration keeps describing the
  // instance even though the signature's start offsets moved; otherwise
  // the geometry changed and the cache decides.
  bool continuous = cand != nullptr && cand->valid;
  for (const OpTrack& ot : ops) {
    if (!ot.delta_stable || ot.line_crossed) {
      continuous = false;
      break;
    }
  }
  if (!continuous) {
    const auto it = cache.find(pending_sig);
    cand = it != cache.end() ? &it->second : nullptr;
  }
  bool usable = cand != nullptr && cand->valid && cand->n_iters == n_iters;
  if (usable) {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].stride != cand->strides[i]) {
        usable = false;
        break;
      }
    }
  }
  if (usable && !cand->model_ok) {
    // The analytical model could not explain this geometry's measured
    // rate: not memory-governed, keep executing it exactly (and do not
    // re-calibrate what we already measured).
    return false;
  }
  if (usable) {
    // The probe: the real prologue must cost what the calibrated one
    // did, or the memory state diverged and the record is stale.
    const double tol =
        kProbeRelTol * double(cand->pro_cycles) + kProbeAbsSlack;
    if (std::fabs(double(pro_cycles) - double(cand->pro_cycles)) <= tol) {
      return true;  // the thread jumps using cand
    }
  }
  // No reusable calibration. A long single instance can still fast-
  // forward via in-instance periodic windows if the remaining span fits
  // prologue + two measurement windows + at least one skippable window.
  const std::int64_t w = intra_window();
  if (w > 0 && n_iters - kMarginIters - (kPrologueIters + 2 * w) >= w) {
    intra_active = true;
    intra_w = w;
    return false;
  }
  calibrating = true;  // run the instance exactly and (re)record it
  return false;
}

std::int64_t LoopPhase::intra_window() const {
  // LCM of each stream's row period (iterations per whole DRAM row), so
  // one window advances every stream by a whole number of rows and the
  // hit/miss pattern repeats window-to-window. Streams whose stride does
  // not divide into the row cleanly inflate the LCM; above the cap the
  // pattern is treated as non-periodic.
  const std::int64_t cap = 1 << 16;
  const std::int64_t rb = std::int64_t(row_bytes);
  std::int64_t w = 1;
  for (const OpTrack& ot : ops) {
    const std::int64_t s = ot.stride < 0 ? -ot.stride : ot.stride;
    if (s == 0) continue;
    const std::int64_t p = rb / std::gcd(rb, s);
    w = w / std::gcd(w, p) * p;
    if (w > cap) return 0;
  }
  return w;
}

bool LoopPhase::finish_instance(cycle_t final_iter_cycles) {
  const bool full = iter_ok && cursor == ops.size();
  cursor = 0;
  iter_ok = false;
  expect_valid = false;
  const bool was_calibrating = calibrating;
  calibrating = false;
  if (!inst_active) return false;
  inst_active = false;
  if (!full) {
    for (OpTrack& ot : ops) {
      ot.have_prev_start = false;
      ot.have_prev_delta = false;
    }
    return false;
  }
  const std::int64_t k = iter_index++;
  if (k < kPrologueIters) {
    pro_cycles += final_iter_cycles;
  } else if (k < n_iters - kMarginIters) {
    span_cycles += final_iter_cycles;
  } else {
    tail_cycles += final_iter_cycles;
  }
  if (!was_calibrating || strides_broken || k != n_iters - 1) return false;

  Calibration c;
  c.valid = true;
  c.model_ok = false;  // the thread gates it against the model next
  c.n_iters = n_iters;
  c.span_iters = n_iters - kPrologueIters - kMarginIters;
  c.pro_cycles = pro_cycles;
  c.span_cycles = span_cycles;
  c.span_hits = span_hits;
  c.strides.reserve(ops.size());
  for (const OpTrack& ot : ops) c.strides.push_back(ot.stride);
  if (cache.size() >= kMaxCacheEntries &&
      cache.find(pending_sig) == cache.end()) {
    cache.clear();  // pathological geometry churn: start over
  }
  Calibration& slot = cache[pending_sig];
  slot = std::move(c);
  cand = &slot;
  return true;
}

void LoopPhase::after_jump(std::int64_t new_iv, std::int64_t skipped) {
  jumped = true;
  decline_streak = 0;
  iter_index += skipped;
  expect_valid = true;
  expect_iv = new_iv;
  cursor = 0;
  iter_ok = false;
  // Project each stream to the last skipped iteration's address so the
  // memory model can re-open exactly the rows the real run would have
  // left open (stride-affine streams make the projection exact).
  for (OpTrack& ot : ops) {
    ot.last_addr = addr_t(std::int64_t(ot.inst_start) +
                          ot.stride * (iter_index - 1));
  }
}

void LoopPhase::jump_declined() {
  calibrating = true;
  if (++decline_streak >= kDeclineBackoff) {
    dormant = kDormantInstances;
    decline_streak = 0;
  }
}

void LoopPhase::invalidate_instance() {
  inst_active = false;
  calibrating = false;
  expect_valid = false;
  // The next instance's start deltas would be measured against a stream
  // we lost track of; force it through the signature cache instead.
  for (OpTrack& ot : ops) {
    ot.have_prev_start = false;
    ot.have_prev_delta = false;
  }
}

double predict_cpi(const DramParams& dram, const LoopPhase& ph, int ii,
                   int ext_assumed_min, int stall_multiplier,
                   double hit_rate) {
  const double hr = hit_rate;
  double bus = 0.0;
  double occ = 0.0;
  double stall = 0.0;
  for (const OpTrack& ot : ph.ops) {
    const double lines = std::max<double>(
        1.0, double((addr_t(ot.bytes) + dram.line_bytes - 1) /
                    dram.line_bytes));
    bus += double(dram.bus_accept_interval) +
           (ot.is_write ? double(dram.write_accept_extra) : 0.0);
    occ += hr * lines * double(dram.hit_occupancy) +
           (1.0 - hr) * (double(dram.miss_occupancy) +
                         (lines - 1.0) * double(dram.hit_occupancy));
    if (!ot.is_write) {
      // Writes are posted; only reads can overrun the scheduler's
      // assumed minimum and stall the stage.
      const double lat = double(dram.base_latency) +
                         (1.0 - hr) * double(dram.row_miss_penalty) +
                         (lines - 1.0);
      stall += std::max(0.0, lat - double(ext_assumed_min));
    }
  }
  occ /= double(std::max(1, dram.num_banks));
  return std::max({double(ii) + stall * double(stall_multiplier), bus, occ});
}

}  // namespace hlsprof::sim::ff
