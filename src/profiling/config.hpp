// Configuration of the embedded profiling unit (paper §IV).
#pragma once

#include <cstddef>

#include "common/types.hpp"

namespace hlsprof::profiling {

struct ProfilingConfig {
  // Which collectors are synthesized (each adds hardware, §V-B notes the
  // counters contribute similarly to the overhead).
  bool enable_states = true;
  bool enable_stall_events = true;
  bool enable_compute_events = true;
  bool enable_memory_events = true;

  /// Sampling period for event counters in cycles (paper §IV-B2: user-
  /// adjustable; finer periods produce larger traces).
  cycle_t sampling_period = 8192;

  /// On-chip trace buffer capacity in 512-bit lines; the buffer flushes to
  /// external memory when nearly full (paper §IV-B1).
  int buffer_lines = 64;
  /// Flush when this many lines are still free ("nearly full").
  int flush_headroom_lines = 4;

  /// DRAM region reserved for the trace.
  std::size_t trace_region_bytes = std::size_t{32} << 20;

  bool any_events() const {
    return enable_stall_events || enable_compute_events ||
           enable_memory_events;
  }
};

}  // namespace hlsprof::profiling
