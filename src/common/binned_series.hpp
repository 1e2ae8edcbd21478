// Time-binned accumulation series. The profiling unit and the Paraver
// analysis layer both need "value per fixed-width time window" curves
// (memory throughput over time, FLOP activity over time — the curves in
// the paper's Figs. 7–9).
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.hpp"

namespace hlsprof {

/// Accumulates samples (time, amount) into fixed-width cycle bins.
/// Bin i covers [i*width, (i+1)*width). The series grows on demand.
class BinnedSeries {
 public:
  /// `bin_width` must be > 0; throws Error otherwise.
  explicit BinnedSeries(cycle_t bin_width);

  /// Add `amount` at cycle `t` (accumulated into t's bin).
  void add(cycle_t t, double amount);

  /// Add `amount` spread uniformly over [t0, t1). Used when a block of work
  /// with a known aggregate (e.g. k loop iterations' worth of FLOPs) spans
  /// several bins. No-op if t1 <= t0.
  void add_range(cycle_t t0, cycle_t t1, double amount);

  /// Sum stored in bin `i` (0 if beyond the last touched bin).
  double bin(std::size_t i) const;

 private:
  cycle_t bin_width_;
  std::vector<double> bins_;
};

}  // namespace hlsprof
