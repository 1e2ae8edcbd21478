#include "common/binned_series.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace hlsprof {

BinnedSeries::BinnedSeries(cycle_t bin_width) : bin_width_(bin_width) {
  HLSPROF_CHECK(bin_width > 0, "bin width must be positive");
}

void BinnedSeries::add(cycle_t t, double amount) {
  const std::size_t idx = static_cast<std::size_t>(t / bin_width_);
  if (idx >= bins_.size()) bins_.resize(idx + 1, 0.0);
  bins_[idx] += amount;
}

void BinnedSeries::add_range(cycle_t t0, cycle_t t1, double amount) {
  if (t1 <= t0) return;
  const double span = double(t1 - t0);
  std::size_t first = static_cast<std::size_t>(t0 / bin_width_);
  std::size_t last = static_cast<std::size_t>((t1 - 1) / bin_width_);
  if (last >= bins_.size()) bins_.resize(last + 1, 0.0);
  for (std::size_t i = first; i <= last; ++i) {
    const cycle_t bin_start = cycle_t(i) * bin_width_;
    const cycle_t bin_end = bin_start + bin_width_;
    const cycle_t lo = std::max(t0, bin_start);
    const cycle_t hi = std::min(t1, bin_end);
    bins_[i] += amount * double(hi - lo) / span;
  }
}

double BinnedSeries::bin(std::size_t i) const {
  return i < bins_.size() ? bins_[i] : 0.0;
}

}  // namespace hlsprof
