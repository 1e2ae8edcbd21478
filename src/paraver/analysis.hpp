// Quantitative analyses over reconstructed timelines — the numbers the
// paper reads off Paraver views: state-time percentages (Fig. 6),
// bandwidth-over-time curves (Fig. 7), load/compute phase structure
// (Figs. 8/9), and achieved GFLOP/s (§V-D).
#pragma once

#include <string>
#include <vector>

#include "trace/timed_trace.hpp"

namespace hlsprof::paraver {

/// Per-window rate series of an event kind, summed over threads, in units
/// per cycle (e.g. bytes/cycle for memory kinds). Missing windows are 0.
/// The series covers windows [0, ceil(duration/period)).
std::vector<double> rate_series(const trace::TimedTrace& t,
                                trace::EventKind kind);

/// Same, restricted to one hardware thread.
std::vector<double> rate_series_thread(const trace::TimedTrace& t,
                                       trace::EventKind kind,
                                       thread_id_t tid);

/// Bytes/cycle -> GB/s at a clock frequency in MHz.
double bytes_per_cycle_to_gbs(double bytes_per_cycle, double fmax_mhz);

/// Achieved GFLOP/s over a cycle span at a clock frequency in MHz.
double gflops(long long fp_ops, cycle_t cycles, double fmax_mhz);

/// State-time summary (fractions of the trace duration).
struct StateSummary {
  double idle = 0;
  double running = 0;
  double critical = 0;
  double spinning = 0;
};
StateSummary summarize_states(const trace::TimedTrace& t);

/// Phase structure of the execution (paper Figs. 8/9): classify each
/// sampling window by whether memory traffic and FP compute are active,
/// then measure how much compute overlaps memory. A blocked (non-double-
/// buffered) GEMM shows near-zero overlap — distinct load and compute
/// phases; double buffering drives the overlap toward 1.
struct PhaseProfile {
  int windows = 0;
  int mem_only = 0;       // memory active, compute quiet
  int compute_only = 0;   // compute active, memory quiet
  int overlap = 0;        // both active
  int quiet = 0;          // neither
  int phase_changes = 0;  // transitions between mem-only and compute-only

  /// overlap / (overlap + compute_only): fraction of compute windows in
  /// which memory traffic is concurrently flowing.
  double overlap_fraction() const;
};
PhaseProfile phase_profile(const trace::TimedTrace& t,
                           double mem_threshold_bytes_per_cycle = 0.5,
                           double fp_threshold_ops_per_cycle = 0.05);

/// Phase structure of a single thread (the paper's Figs. 8/9 zoom into one
/// compute unit's curves; with 8 independently progressing threads the
/// aggregate view blurs the phase alternation).
PhaseProfile phase_profile_thread(const trace::TimedTrace& t, thread_id_t tid,
                                  double mem_threshold_bytes_per_cycle = 0.05,
                                  double fp_threshold_ops_per_cycle = 0.01);

/// Fraction of one thread's floating-point work that executes in windows
/// with concurrent external-memory traffic. Near 0 for the blocked GEMM
/// (loads and compute alternate, Fig. 8); near 1 with double buffering
/// (prefetch overlaps compute, Fig. 9).
double weighted_compute_mem_overlap(
    const trace::TimedTrace& t, thread_id_t tid,
    double mem_threshold_bytes_per_cycle = 0.05);

/// Mean bytes/cycle over the whole run (read+write), i.e. achieved
/// external-memory throughput.
double mean_bandwidth(const trace::TimedTrace& t);
/// Peak per-window bytes/cycle.
double peak_bandwidth(const trace::TimedTrace& t);

/// Compact text table of a rate series (for bench output): `buckets`
/// aggregated columns, each shown as a 0-9 intensity digit plus the peak
/// value — a terminal rendition of the paper's Fig. 7 curves.
std::string sparkline(const std::vector<double>& series, int buckets);

/// Histogram of state-interval durations (Paraver's 2D-analyzer view):
/// bucket i counts intervals with duration in [2^i, 2^(i+1)) cycles.
/// Useful to separate brief uncontended lock acquisitions from long
/// convoy-style spins.
struct DurationHistogram {
  sim::ThreadState state;
  std::vector<long long> log2_buckets;  // index = floor(log2(duration))
  long long total_intervals = 0;
  cycle_t total_cycles = 0;
  cycle_t min_duration = 0;
  cycle_t max_duration = 0;
};
DurationHistogram state_duration_histogram(const trace::TimedTrace& t,
                                           sim::ThreadState state);

}  // namespace hlsprof::paraver
