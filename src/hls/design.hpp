// Output of the HLS compiler: the kernel plus its static schedule, the
// stage structure (static regions vs reordering stages, paper §III-B), and
// the area/frequency estimate. This is what the simulator executes and
// what the profiling unit instruments.
#pragma once

#include <string>
#include <vector>

#include "hls/resources.hpp"
#include "ir/kernel.hpp"

namespace hlsprof::hls {

/// Scheduling/pipelining summary of one IR loop (indexed by LoopStmt::id).
struct LoopInfo {
  std::string name;
  bool pipelined = false;   // pipelined innermost loop vs sequential loop
  int ii = 1;               // initiation interval (pipelined only)
  int rec_ii = 1;           // recurrence-constrained II
  int res_ii = 1;           // resource-constrained II
  int depth = 0;            // schedule length (pipeline fill cycles)
  int num_stages = 0;       // pipeline stages (distinct start cycles used)
  int num_reordering_stages = 0;  // stages containing VLOs (Nymble-MT)
  // Per-iteration operation census of the body (this loop's body region
  // only; nested loops are separate VLO nodes and keep their own census).
  long long int_ops = 0;
  long long fp_ops = 0;     // FP *lane* operations (FLOP count per iter)
  long long ext_loads = 0;
  long long ext_stores = 0;
  long long ext_bytes_read = 0;
  long long ext_bytes_written = 0;
  long long local_accesses = 0;
  // Register-pressure estimate: value bits live across stage boundaries,
  // and the subset at reordering boundaries (replicated per thread).
  long long live_bits = 0;
  long long reorder_context_bits = 0;
};

/// Census of a straight-line (non-loop) scheduled segment is not stored;
/// the simulator charges per-op latencies directly via `op_latency`.

/// Design-level statistics consumed by the profiling-unit overhead model.
struct DesignStats {
  int num_threads = 0;
  int total_stages = 0;
  int total_reordering_stages = 0;
  int bus_ports = 0;          // per-thread read+write masters (+preloader)
  long long total_ops = 0;
  long long fp_op_instances = 0;    // FP operator instances in the datapath
  long long int_op_instances = 0;
  long long mem_op_instances = 0;   // external load/store sites
  bool uses_critical = false;
  bool uses_preloader = false;
  int num_loops = 0;
};

/// Compiler options.
struct HlsOptions {
  ResourceLibrary lib;
  InfraCosts infra;
  FmaxModel fmax;
  /// Attach the preloader block of the architecture template (Fig. 1).
  bool enable_preloader = true;
  /// Enable Nymble-MT thread reordering at VLO stages (paper §III-B); when
  /// false the accelerator behaves like plain C-slow interleaving and a
  /// stalled thread blocks the threads behind it (ablation A3).
  bool thread_reordering = true;
};

/// The compiled accelerator.
struct Design {
  ir::Kernel kernel;
  HlsOptions options;

  // Per-ValueId scheduling results (indexed like kernel.ops).
  std::vector<int> op_latency;  // datapath latency used by the schedule
  std::vector<int> op_start;    // start cycle inside the enclosing
                                // pipelined-loop body schedule (else 0)

  std::vector<LoopInfo> loops;  // indexed by LoopStmt::id

  DesignStats stats;
  Area area;          // accelerator WITHOUT profiling infrastructure
  double fmax_mhz = 0.0;

  const LoopInfo& loop(int id) const;
};

}  // namespace hlsprof::hls
