#include "sim/memory.hpp"

#include <algorithm>

namespace hlsprof::sim {

namespace {

constexpr bool is_pow2(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

constexpr unsigned log2_exact(std::uint64_t v) {
  unsigned s = 0;
  while ((std::uint64_t{1} << s) < v) ++s;
  return s;
}

}  // namespace

ExternalMemory::ExternalMemory(const DramParams& params, std::size_t capacity)
    : p_(params),
      data_(static_cast<std::uint8_t*>(std::calloc(capacity, 1))),
      size_(capacity) {
  HLSPROF_CHECK(data_ != nullptr || capacity == 0,
                "cannot allocate " + std::to_string(capacity) +
                    " bytes of external memory");
  HLSPROF_CHECK(p_.num_banks >= 1, "DRAM needs at least one bank");
  HLSPROF_CHECK(p_.line_bytes > 0 && p_.row_bytes >= p_.line_bytes,
                "DRAM row must be at least one line");
  banks_.resize(static_cast<std::size_t>(p_.num_banks));
  if (is_pow2(p_.row_bytes) && is_pow2(p_.line_bytes) &&
      is_pow2(std::uint64_t(p_.num_banks))) {
    pow2_geometry_ = true;
    row_shift_ = log2_exact(p_.row_bytes);
    line_shift_ = log2_exact(p_.line_bytes);
    bank_mask_ = std::uint64_t(p_.num_banks) - 1;
  }
}

addr_t ExternalMemory::allocate(const std::string& label, std::size_t bytes) {
  const addr_t aligned = (alloc_ptr_ + 63) & ~addr_t{63};
  // `aligned + bytes` can wrap for huge requests; compare against the
  // remaining capacity instead so overflow cannot sneak past the check.
  HLSPROF_CHECK(aligned >= alloc_ptr_ && aligned <= size_ &&
                    bytes <= size_ - aligned,
                "external memory exhausted allocating '" + label + "'");
  alloc_ptr_ = aligned + bytes;
  return aligned;
}

void ExternalMemory::write_bytes(addr_t addr, const void* src, std::size_t n) {
  HLSPROF_CHECK(addr + n <= size_, "external memory write out of range");
  std::memcpy(data_.get() + addr, src, n);
}

void ExternalMemory::read_bytes(addr_t addr, void* dst, std::size_t n) const {
  HLSPROF_CHECK(addr + n <= size_, "external memory read out of range");
  std::memcpy(dst, data_.get() + addr, n);
}

MemTiming ExternalMemory::burst(cycle_t t, addr_t addr, std::uint32_t bytes) {
  // The preloader DMA issues back-to-back line requests on its own bus
  // master; the requesting thread resumes when the last line has arrived.
  const addr_t line = p_.line_bytes;
  const addr_t first_line = addr / line;
  const addr_t last_line = (addr + bytes - 1) / line;
  MemTiming tm;
  bool first = true;
  for (addr_t l = first_line; l <= last_line; ++l) {
    const MemTiming part = access(t, l * line, std::uint32_t(line), false);
    if (first) {
      tm.accepted = part.accepted;
      tm.row_hit = part.row_hit;
      first = false;
    }
    tm.complete = std::max(tm.complete, part.complete);
    t = part.accepted + 1;
  }
  return tm;
}

void ExternalMemory::ff_advance(cycle_t delta) {
  bus_free_at_ += delta;
  for (Bank& b : banks_) b.free_at += delta;
}

void ExternalMemory::ff_touch_row(addr_t addr) {
  std::int64_t row;
  std::size_t bank_idx;
  if (pow2_geometry_) {
    row = std::int64_t(addr >> row_shift_);
    bank_idx = std::size_t(std::uint64_t(row) & bank_mask_);
  } else {
    row = std::int64_t(addr / p_.row_bytes);
    bank_idx = static_cast<std::size_t>(row % std::int64_t(p_.num_banks));
  }
  banks_[bank_idx].open_row = row;
}

void ExternalMemory::ff_absorb(long long reads, long long writes,
                               long long bytes_read, long long bytes_written,
                               long long row_hits, long long row_misses) {
  reads_ += reads;
  writes_ += writes;
  bytes_read_ += bytes_read;
  bytes_written_ += bytes_written;
  row_hits_ += row_hits;
  row_misses_ += row_misses;
}

}  // namespace hlsprof::sim
