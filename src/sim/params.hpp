// Timing parameters of the simulated architecture template (paper Fig. 1).
// Defaults are calibrated against the paper's absolute anchors (853.5M
// cycles for naive 512x512 GEMM at 140 MHz; the pi case study's GFLOP/s
// staircase); see EXPERIMENTS.md for the calibration notes.
#pragma once

#include "common/types.hpp"

namespace hlsprof::sim {

/// External DDR4 memory behind the Avalon bus: 512-bit controller, banked,
/// open-page row-buffer policy. Requests are serialized through the bus
/// (one acceptance per cycle) and then through per-bank occupancy.
struct DramParams {
  int num_banks = 4;            // the D5005's four DDR4 banks
  addr_t line_bytes = 64;       // 512-bit controller word
  addr_t row_bytes = 2048;      // open row per bank
  cycle_t base_latency = 14;    // accept -> data (row hit), fabric RTT incl.
  cycle_t row_miss_penalty = 12;  // extra latency on row activation
  cycle_t hit_occupancy = 1;    // bank busy cycles per line, open row
  cycle_t miss_occupancy = 8;   // bank busy cycles per request, row miss
  cycle_t bus_accept_interval = 1;  // Avalon arbiter acceptance rate
  cycle_t write_accept_extra = 0;   // extra acceptance delay for writes
};

/// Hardware semaphore servicing OpenMP critical sections over the Avalon
/// bus (paper Fig. 1 / Fig. 2).
struct SemaphoreParams {
  cycle_t acquire_latency = 24;  // uncontended request -> grant (bus RTT)
  cycle_t release_latency = 6;   // release message
  cycle_t handoff_latency = 20;  // release -> next waiter's grant
};

/// Host/driver model: OpenMP map() transfers and the software overhead of
/// starting hardware threads via the Avalon slave. The paper's pi case
/// study (§V-D) shows this start overhead dominating small workloads.
struct HostParams {
  double pcie_bytes_per_cycle = 64.0;  // map(to/from) transfer bandwidth
  cycle_t transfer_setup = 2000;       // driver setup per map transfer
  cycle_t thread_start_interval = 700000;  // software start cost per thread
  cycle_t barrier_release_latency = 6;
};

/// Controller overhead for suspending/resuming the outer dataflow graph
/// when an inner loop (a VLO node) executes (paper §III-B).
struct ControllerParams {
  cycle_t loop_entry_overhead = 4;
  cycle_t loop_iter_overhead = 2;  // sequential (non-pipelined) loops only
};

struct SimParams {
  DramParams dram;
  SemaphoreParams sem;
  HostParams host;
  ControllerParams ctrl;
  /// Evaluate floating-point ops (functional simulation). Disable for
  /// timing-only sweeps: addresses and control flow are still exact, but
  /// FP values are not computed and output buffers are not meaningful.
  bool functional = true;
  /// Run the event loop heap-only, without the fast path (direct dispatch
  /// + batched memory streams, which fast-forwarding also needs). The
  /// two modes are cycle-exact against each other — identical SimResult
  /// fields and byte-identical Paraver output; the reference mode exists
  /// as the oracle for the differential test suite and for debugging.
  bool reference_event_loop = false;
  /// Opt-in approximate mode: analytically fast-forward steady-state
  /// memory-bound pipelined loop phases (manifest key `approx_trace`,
  /// CLI --approx-trace). Skipped iterations do not execute, so output
  /// buffers are not meaningful (like functional=false), and trace
  /// records over a skipped span are synthesized aggregates; state
  /// shares, per-thread cycle totals, and bandwidth series stay within
  /// the tested tolerance of the exact run (docs/PERF.md). Designs where
  /// no steady memory-bound phase is detected — sync-heavy bodies, pure
  /// compute loops, overlapping threads — execute bit-identically to the
  /// exact fast path.
  bool fast_forward = false;
  /// Upper bound on simulated cycles (deadlock/livelock guard).
  cycle_t max_cycles = ~cycle_t{0} / 4;
};

}  // namespace hlsprof::sim
