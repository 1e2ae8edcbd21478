// Small statistics helpers for the overhead-reporting code (the paper
// reports max and geometric-mean overheads across designs in Section V-B).
#pragma once

#include <span>

namespace hlsprof {

/// Geometric mean. All inputs must be > 0; throws Error otherwise.
/// Returns 0 for an empty span.
double geomean(std::span<const double> xs);

/// Maximum value; throws Error on an empty span.
double max_of(std::span<const double> xs);

}  // namespace hlsprof
