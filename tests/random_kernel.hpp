// A seeded random kernel for the simulator's differential and oracle
// suites: strided external loops, critical sections on random lock ids,
// barriers between phases and per-thread partial accumulation.
#pragma once

#include <cstdint>

#include "ir/kernel.hpp"

namespace hlsprof {

/// Arguments: "x" (f32, to), "y" (f32, tofrom) — both `args[0].count`
/// elements — and "acc" (f32, tofrom, one slot per lock, `args[2].count`).
ir::Kernel random_kernel(std::uint64_t seed);

}  // namespace hlsprof
