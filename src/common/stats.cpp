#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace hlsprof {

double geomean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : xs) {
    HLSPROF_CHECK(x > 0.0, "geomean requires strictly positive inputs");
    log_sum += std::log(x);
  }
  return std::exp(log_sum / double(xs.size()));
}

double max_of(std::span<const double> xs) {
  HLSPROF_CHECK(!xs.empty(), "max_of on empty span");
  return *std::max_element(xs.begin(), xs.end());
}

}  // namespace hlsprof
