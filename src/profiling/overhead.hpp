// Hardware cost model of the profiling unit: how many registers/ALMs/BRAM
// bits the tracer adds to a given design, and its impact on the achievable
// clock (snoop fan-out lengthens the critical path). Reproduces the
// methodology of the paper's §V-B overhead study.
#pragma once

#include "hls/design.hpp"
#include "profiling/config.hpp"

namespace hlsprof::profiling {

/// Per-collector cost breakdown (the paper notes each counter contributes
/// similarly; the breakdown lets the bench verify that).
struct OverheadBreakdown {
  hls::Area state_tracker;
  hls::Area stall_counters;
  hls::Area compute_counters;
  hls::Area memory_counters;
  hls::Area flush_engine;
};

struct ProfilingOverhead {
  hls::Area delta;            // total added resources
  OverheadBreakdown parts;
  double fmax_delta_mhz = 0;  // positive = degradation
  // Relative overheads vs. the base design (what §V-B reports).
  double register_pct = 0;
  double alm_pct = 0;
};

/// Tuning knobs of the overhead model (calibrated; see EXPERIMENTS.md).
struct OverheadModel {
  double alm_per_snoop_source = 14.0;
  double ff_per_counter_bit = 1.0;
  int counter_bits = 64;
  double state_tracker_alm_base = 90.0;
  double state_tracker_alm_per_thread = 6.0;
  double flush_alm = 180.0;
  double flush_ff = 260.0;
  // fmax degradation: the tracer's taps on the memory path (load/store
  // units and the stallable reordering stages) sit on the design's
  // critical path; compute-dense designs (like pi) barely degrade while
  // memory-dense designs lose up to the cap (paper: 8 MHz for the GEMM
  // designs, 1 MHz for pi).
  double fmax_c0 = 0.2;
  double fmax_per_mem_tap = 0.3;
  double fmax_cap = 8.0;
};

/// Estimate the tracer's hardware cost for `design` under `config`.
ProfilingOverhead estimate_overhead(const hls::Design& design,
                                    const ProfilingConfig& config,
                                    const OverheadModel& model = OverheadModel{});

}  // namespace hlsprof::profiling
