// Tests for the DRAM model: functional store, allocation, and the banked
// open-page timing behaviour the GEMM case study depends on.
#include <gtest/gtest.h>
#include <unistd.h>

#include <fstream>

#include "common/error.hpp"
#include "core/hlsprof.hpp"
#include "sim/memory.hpp"
#include "workloads/pi.hpp"

namespace hlsprof::sim {
namespace {

DramParams default_params() { return DramParams{}; }

TEST(Memory, FunctionalReadWriteRoundTrip) {
  ExternalMemory mem(default_params(), 4096);
  const float v = 3.5f;
  mem.write_scalar(64, v);
  EXPECT_EQ(mem.read_scalar<float>(64), 3.5f);
  mem.write_scalar<std::int64_t>(128, -7);
  EXPECT_EQ(mem.read_scalar<std::int64_t>(128), -7);
}

TEST(Memory, BulkBytes) {
  ExternalMemory mem(default_params(), 4096);
  std::uint8_t src[16];
  for (int i = 0; i < 16; ++i) src[i] = std::uint8_t(i);
  mem.write_bytes(100, src, 16);
  std::uint8_t dst[16] = {};
  mem.read_bytes(100, dst, 16);
  EXPECT_EQ(std::memcmp(src, dst, 16), 0);
}

TEST(Memory, OutOfRangeAccessThrows) {
  ExternalMemory mem(default_params(), 128);
  std::uint8_t b = 0;
  EXPECT_THROW(mem.write_bytes(127, &b, 2), Error);
  EXPECT_THROW(mem.read_bytes(128, &b, 1), Error);
}

TEST(Memory, AllocationIsAligned) {
  ExternalMemory mem(default_params(), 1 << 16);
  const addr_t a = mem.allocate("a", 10);
  const addr_t b = mem.allocate("b", 10);
  EXPECT_EQ(a % 64, 0u);
  EXPECT_EQ(b % 64, 0u);
  EXPECT_GE(b, a + 10);
}

TEST(Memory, AllocationExhaustionThrows) {
  ExternalMemory mem(default_params(), 256);
  (void)mem.allocate("a", 200);
  EXPECT_THROW(mem.allocate("b", 200), Error);
}

TEST(Memory, HugeAllocationDoesNotOverflow) {
  // `aligned + bytes` used to wrap around addr_t for near-SIZE_MAX
  // requests, making the bounds check pass and allocate() hand out an
  // address far past capacity. Must throw instead.
  ExternalMemory mem(default_params(), 1 << 16);
  EXPECT_THROW(mem.allocate("huge", ~std::size_t{0} - 32), Error);
  EXPECT_THROW(mem.allocate("huge2", ~std::size_t{0}), Error);
  // The failed attempts must not corrupt the allocator.
  const addr_t a = mem.allocate("ok", 128);
  EXPECT_EQ(a % 64, 0u);
}

TEST(Memory, RowMissThenHit) {
  DramParams p;
  ExternalMemory mem(p, 1 << 20);
  const MemTiming first = mem.access(0, 0, 4, false);
  EXPECT_FALSE(first.row_hit);
  const MemTiming second = mem.access(100, 4, 4, false);
  EXPECT_TRUE(second.row_hit);
  EXPECT_LT(second.complete - second.accepted,
            first.complete - first.accepted);
}

TEST(Memory, HitLatencyMatchesParams) {
  DramParams p;
  ExternalMemory mem(p, 1 << 20);
  (void)mem.access(0, 0, 4, false);  // open the row
  const MemTiming hit = mem.access(1000, 8, 4, false);
  EXPECT_EQ(hit.complete, hit.accepted + p.base_latency);
}

TEST(Memory, MissLatencyIncludesPenalty) {
  DramParams p;
  ExternalMemory mem(p, 1 << 20);
  const MemTiming miss = mem.access(0, 0, 4, false);
  EXPECT_EQ(miss.complete, miss.accepted + p.base_latency +
                               p.row_miss_penalty);
}

TEST(Memory, DifferentRowsDifferentBanksOverlap) {
  DramParams p;
  ExternalMemory mem(p, 1 << 20);
  // Rows 0..3 land on banks 0..3 (row-granular interleave): back-to-back
  // requests at t=0,1,2,3 should all start service immediately after bus
  // acceptance, not queue behind one bank.
  cycle_t prev_complete = 0;
  for (int r = 0; r < 4; ++r) {
    const MemTiming t =
        mem.access(cycle_t(r), addr_t(r) * p.row_bytes, 4, false);
    EXPECT_EQ(t.accepted, cycle_t(r));  // bus free each cycle
    if (r > 0) {
      EXPECT_LE(t.complete, prev_complete + 2);
    }
    prev_complete = t.complete;
  }
}

TEST(Memory, SameBankQueues) {
  DramParams p;
  ExternalMemory mem(p, 1 << 20);
  // Same row id + num_banks stride -> same bank, different row -> the
  // second request waits for the first bank occupancy and misses again.
  const MemTiming a = mem.access(0, 0, 4, false);
  const MemTiming b =
      mem.access(1, addr_t(p.num_banks) * p.row_bytes, 4, false);
  EXPECT_FALSE(b.row_hit);
  EXPECT_GT(b.complete, a.complete);
}

TEST(Memory, BusSerializesAcceptance) {
  DramParams p;
  ExternalMemory mem(p, 1 << 20);
  const MemTiming a = mem.access(10, 0, 4, false);
  const MemTiming b = mem.access(10, 2048, 4, false);
  EXPECT_EQ(a.accepted, 10u);
  EXPECT_EQ(b.accepted, 10u + p.bus_accept_interval);
}

TEST(Memory, PostedWritesCompleteAtServiceStart) {
  DramParams p;
  ExternalMemory mem(p, 1 << 20);
  const MemTiming w = mem.access(5, 0, 4, true);
  // The thread only waits for acceptance into the bank queue.
  EXPECT_LT(w.complete, w.accepted + p.base_latency);
}

TEST(Memory, WideRequestsOccupyMoreBeats) {
  DramParams p;
  ExternalMemory mem(p, 1 << 20);
  (void)mem.access(0, 0, 4, false);  // open row 0
  // 128-byte request = 2 lines; a following same-row access queues behind
  // 2 hit-occupancy beats rather than 1.
  const MemTiming wide = mem.access(100, 64, 128, false);
  const MemTiming next = mem.access(100, 256, 4, false);
  EXPECT_TRUE(wide.row_hit);
  EXPECT_GE(next.complete, wide.accepted + 2 * p.hit_occupancy);
}

TEST(Memory, StatisticsAccumulate) {
  ExternalMemory mem(default_params(), 1 << 20);
  (void)mem.access(0, 0, 16, false);
  (void)mem.access(1, 16, 16, false);
  (void)mem.access(2, 0, 64, true);
  EXPECT_EQ(mem.reads(), 2);
  EXPECT_EQ(mem.writes(), 1);
  EXPECT_EQ(mem.bytes_read(), 32);
  EXPECT_EQ(mem.bytes_written(), 64);
  EXPECT_EQ(mem.row_hits() + mem.row_misses(), 3);
}

TEST(Memory, RejectsBadGeometry) {
  DramParams p;
  p.num_banks = 0;
  EXPECT_THROW(ExternalMemory(p, 1024), Error);
  DramParams q;
  q.row_bytes = 16;
  q.line_bytes = 64;
  EXPECT_THROW(ExternalMemory(q, 1024), Error);
}

// ---- zero-on-first-touch store ------------------------------------------------

constexpr std::size_t k64MiB = std::size_t{64} << 20;

TEST(SimMemory, UntouchedBytesReadZeroAcrossCapacity) {
  ExternalMemory mem(default_params(), k64MiB);
  ASSERT_EQ(mem.capacity(), k64MiB);
  for (const addr_t a : {addr_t{0}, addr_t{k64MiB / 2}, addr_t{k64MiB - 8}}) {
    EXPECT_EQ(mem.read_scalar<std::int64_t>(a), 0) << "address " << a;
  }
  mem.write_scalar<std::uint8_t>(k64MiB - 1, 0xab);
  EXPECT_EQ(mem.read_scalar<std::uint8_t>(k64MiB - 1), 0xab);
  EXPECT_EQ(mem.read_scalar<std::uint8_t>(k64MiB - 2), 0);
  EXPECT_THROW(mem.read_scalar<std::uint8_t>(k64MiB), Error);
  EXPECT_THROW(mem.write_scalar<std::uint8_t>(k64MiB, 1), Error);
  std::uint8_t two[2] = {};
  EXPECT_THROW(mem.read_bytes(k64MiB - 1, two, 2), Error);
}

/// Resident set size of this process in bytes, or -1 if unknown.
long long resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  long long size_pages = 0;
  long long resident_pages = 0;
  if (!(statm >> size_pages >> resident_pages)) return -1;
  return resident_pages * ::sysconf(_SC_PAGESIZE);
}

TEST(SimMemory, ConstructionDoesNotTouchCapacity) {
  // Capacity is an address-space bound, not a resident cost: building a
  // 64 MiB store and a profiled session (whose own DRAM is 64 MiB too)
  // makes only the pages they write resident.
  workloads::PiConfig cfg;
  cfg.steps = 1024;
  auto design = core::compile_shared(workloads::pi_series(cfg));
  const long long before = resident_bytes();
  if (before < 0) GTEST_SKIP() << "/proc/self/statm is not readable";
  ExternalMemory mem(default_params(), k64MiB);
  core::Session session(design);
  const long long grown = resident_bytes() - before;
  EXPECT_LT(grown, 16ll << 20) << "resident size grew by " << grown
                               << " bytes";
  EXPECT_EQ(mem.read_scalar<std::int64_t>(k64MiB - 8), 0);
}

}  // namespace
}  // namespace hlsprof::sim
