// External (DRAM) memory: functional backing store plus the banked,
// open-page timing model behind the Avalon bus. One instance is shared by
// all hardware threads, the preloader, and the profiling unit's flush
// engine — so tracer traffic perturbs application traffic exactly as it
// would in hardware.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "sim/params.hpp"

namespace hlsprof::sim {

/// Timing result of one memory access.
struct MemTiming {
  cycle_t accepted = 0;   // cycle the Avalon arbiter accepted the request
  cycle_t complete = 0;   // cycle read data returned (== accepted for
                          // posted writes' commit point)
  bool row_hit = false;
};

/// Functional store: `capacity` is an address-space bound, not a resident
/// cost. The bytes come from `calloc`, which serves large requests from
/// fresh anonymous pages the OS zeroes on first touch, so a session pays
/// only for the pages its buffers and trace actually use. Bytes never
/// written read as 0. Move-only.
class ExternalMemory {
 public:
  explicit ExternalMemory(const DramParams& params, std::size_t capacity);

  // ---- Address-space management ------------------------------------------
  /// Allocate a 64-byte-aligned region; returns its base address.
  addr_t allocate(const std::string& label, std::size_t bytes);
  std::size_t capacity() const { return size_; }

  // ---- Functional access -----------------------------------------------------
  void write_bytes(addr_t addr, const void* src, std::size_t n);
  void read_bytes(addr_t addr, void* dst, std::size_t n) const;

  // Scalar access is on the thread executor's per-element hot path, so it
  // checks bounds and copies inline (the compile-time size lets the
  // copy lower to a single load/store) instead of calling read_bytes.
  template <typename T>
  T read_scalar(addr_t addr) const {
    HLSPROF_CHECK(addr + sizeof(T) <= size_,
                  "external memory read out of range");
    T v;
    std::memcpy(&v, data_.get() + addr, sizeof(T));
    return v;
  }
  template <typename T>
  void write_scalar(addr_t addr, T v) {
    HLSPROF_CHECK(addr + sizeof(T) <= size_,
                  "external memory write out of range");
    std::memcpy(data_.get() + addr, &v, sizeof(T));
  }

  // ---- Timing --------------------------------------------------------------
  /// Submit a request at cycle `t` (global time order across callers is
  /// the caller's responsibility — the simulator's event loop guarantees
  /// it). Advances arbiter and bank state. Inlined into its callers:
  /// every request of every thread passes through it.
  [[gnu::always_inline]] MemTiming access(cycle_t t, addr_t addr,
                                          std::uint32_t bytes, bool is_write);

  /// Preloader DMA burst starting at cycle `t`: the byte range
  /// [addr, addr+bytes) is fetched as back-to-back full-line reads on the
  /// preloader's own bus master. `accepted`/`row_hit` describe the first
  /// line, `complete` the arrival of the last. Used by both simulator
  /// execution modes so burst timing stays identical by construction.
  MemTiming burst(cycle_t t, addr_t addr, std::uint32_t bytes);

  // ---- Fast-forward support ----------------------------------------------
  // Used only by the approximate mode (SimParams::fast_forward): when a
  // thread's clock jumps over `delta` cycles of steady-state traffic, the
  // arbiter and bank pipelines must land in the same relative position
  // they held before the jump, or the first post-jump requests would see
  // an idle DRAM and systematically under-stall.

  /// Shift the arbiter and every bank's busy-until point by `delta`.
  void ff_advance(cycle_t delta);
  /// Mark `addr`'s row open in its bank, as the last request of a skipped
  /// steady stream would have left it.
  void ff_touch_row(addr_t addr);
  /// Account the requests a skipped span would have issued.
  void ff_absorb(long long reads, long long writes, long long bytes_read,
                 long long bytes_written, long long row_hits,
                 long long row_misses);

  // ---- Statistics ---------------------------------------------------------------
  long long reads() const { return reads_; }
  long long writes() const { return writes_; }
  long long bytes_read() const { return bytes_read_; }
  long long bytes_written() const { return bytes_written_; }
  long long row_hits() const { return row_hits_; }
  long long row_misses() const { return row_misses_; }

 private:
  struct Bank {
    cycle_t free_at = 0;
    std::int64_t open_row = -1;
  };

  struct FreeDeleter {
    void operator()(std::uint8_t* p) const { std::free(p); }
  };

  DramParams p_;
  std::unique_ptr<std::uint8_t[], FreeDeleter> data_;
  std::size_t size_ = 0;
  std::vector<Bank> banks_;
  cycle_t bus_free_at_ = 0;
  addr_t alloc_ptr_ = 0;

  // Geometry fast path: the default row/line/bank sizes are powers of
  // two, so `access()` can use shifts and masks instead of 64-bit
  // division on every request. Precomputed once in the constructor;
  // non-power-of-two geometries fall back to div/mod.
  bool pow2_geometry_ = false;
  unsigned row_shift_ = 0;
  unsigned line_shift_ = 0;
  std::uint64_t bank_mask_ = 0;

  long long reads_ = 0;
  long long writes_ = 0;
  long long bytes_read_ = 0;
  long long bytes_written_ = 0;
  long long row_hits_ = 0;
  long long row_misses_ = 0;
};

inline MemTiming ExternalMemory::access(cycle_t t, addr_t addr,
                                        std::uint32_t bytes, bool is_write) {
  // Avalon arbiter: one acceptance per bus_accept_interval.
  cycle_t accepted = std::max(t, bus_free_at_);
  bus_free_at_ = accepted + p_.bus_accept_interval +
                 (is_write ? p_.write_accept_extra : 0);

  // Bank selection: row-granular interleaving — consecutive rows map to
  // consecutive banks, so large-stride streams exploit bank parallelism
  // while staying row-miss-bound. Power-of-two geometries (the default)
  // use the shift/mask path precomputed in the constructor.
  std::int64_t row;
  std::size_t bank_idx;
  cycle_t lines;
  if (pow2_geometry_) {
    row = std::int64_t(addr >> row_shift_);
    bank_idx = std::size_t(std::uint64_t(row) & bank_mask_);
    lines = std::max<cycle_t>(
        1, (cycle_t(bytes) + (cycle_t{1} << line_shift_) - 1) >> line_shift_);
  } else {
    row = std::int64_t(addr / p_.row_bytes);
    bank_idx = static_cast<std::size_t>(row % std::int64_t(p_.num_banks));
    lines = std::max<cycle_t>(1, (bytes + p_.line_bytes - 1) / p_.line_bytes);
  }
  Bank& bank = banks_[bank_idx];

  const cycle_t service_start = std::max(accepted, bank.free_at);
  const bool hit = bank.open_row == row;
  const cycle_t occupancy =
      hit ? lines * p_.hit_occupancy
          : p_.miss_occupancy + (lines - 1) * p_.hit_occupancy;
  const cycle_t latency =
      p_.base_latency + (hit ? 0 : p_.row_miss_penalty) + lines - 1;

  bank.free_at = service_start + occupancy;
  bank.open_row = row;

  MemTiming result;
  result.accepted = accepted;
  result.row_hit = hit;
  // Reads: data arrives after the full latency. Writes are posted: the
  // thread only waits for acceptance into the bank queue.
  result.complete = is_write ? service_start : service_start + latency;

  if (is_write) {
    ++writes_;
    bytes_written_ += bytes;
  } else {
    ++reads_;
    bytes_read_ += bytes;
  }
  (hit ? row_hits_ : row_misses_)++;
  return result;
}

}  // namespace hlsprof::sim
