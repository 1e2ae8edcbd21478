// Test helpers between per-thread state codes and the packed state word
// of trace::StateRecord (thread t's 2-bit code at bits 2t..2t+1).
#pragma once

#include <cstdint>
#include <vector>

#include "trace/records.hpp"

namespace hlsprof {

/// The state word holding `codes[t]` for each thread t (codes 0..3).
inline trace::StateWord pack_states(const std::vector<std::uint8_t>& codes) {
  trace::StateWord w = 0;
  for (std::size_t t = 0; t < codes.size(); ++t) {
    w = trace::with_state(w, int(t), codes[t]);
  }
  return w;
}

/// The codes of threads 0..num_threads-1 in `w`.
inline std::vector<std::uint8_t> unpack_states(trace::StateWord w,
                                               int num_threads) {
  std::vector<std::uint8_t> codes(static_cast<std::size_t>(num_threads));
  for (int t = 0; t < num_threads; ++t) {
    codes[std::size_t(t)] = std::uint8_t(trace::state_code(w, t));
  }
  return codes;
}

}  // namespace hlsprof
