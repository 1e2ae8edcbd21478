// Content-addressed, two-tier cache of compiled designs. The key is a
// stable hash of the kernel's IR dump plus every HLS option that
// influences compilation, so a parameter sweep that re-runs one design
// under many RunOptions compiles it exactly once — including under
// concurrency, where workers requesting an in-flight key block on the
// one compile instead of duplicating it.
//
// Tier 1 is the in-memory single-flight map. Tier 2 (optional, see
// attach_disk) is a content-addressed on-disk store: an in-memory miss
// first tries to deserialize the design from disk, and only compiles —
// then writes the entry back — when the disk also misses. The disk tier
// changes only *how* a tier-1 miss is satisfied, never whether it is
// one, so CacheStats::hits/misses (and the canonical batch reports that
// include them) are identical with the disk tier cold, warm, or absent.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "hls/compiler.hpp"
#include "hls/design.hpp"
#include "ir/kernel.hpp"
#include "runner/disk_store.hpp"

namespace hlsprof::runner {

struct CacheStats {
  long long hits = 0;    // served from memory (or joined an in-flight compile)
  long long misses = 0;  // fell through the in-memory tier
  // Of the misses, how the design was materialized (both stay zero when
  // no disk store is attached):
  long long disk_hits = 0;    // deserialized from the on-disk tier
  long long disk_misses = 0;  // went all the way to a compile
};

class DesignCache {
 public:
  struct Entry {
    std::shared_ptr<const hls::Design> design;
    std::uint64_t key = 0;
    bool hit = false;       // served by the in-memory tier
    bool disk_hit = false;  // in-memory miss satisfied by the disk tier
  };

  /// Stable content key of (kernel IR, HLS options): the FNV-1a hash of
  /// their exact serialized encoding (hls::encode_source), so any two
  /// inputs that could compile differently get different keys.
  static std::uint64_t key_of(const ir::Kernel& kernel,
                              const hls::HlsOptions& options);

  /// Return the cached design for this content, compiling on first use.
  /// Concurrent callers with the same key share one compile: exactly one
  /// caller misses (and loads from disk or compiles), the rest hit. If
  /// the compile throws, the error propagates to every waiting caller
  /// and the entry is dropped so a later request can retry.
  Entry get_or_compile(ir::Kernel kernel, const hls::HlsOptions& options);

  /// Attach (or replace) the on-disk tier. Runs the store's open-time
  /// LRU eviction pass; throws hlsprof::Error if the directory cannot
  /// be created. Entries already in memory are unaffected.
  void attach_disk(DiskDesignStore::Options options);

  /// The attached disk tier, or nullptr (the default).
  std::shared_ptr<const DiskDesignStore> disk() const;

  CacheStats stats() const;

 private:
  using Future = std::shared_future<std::shared_ptr<const hls::Design>>;

  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, Future> map_;
  /// Wall-clock cost of each performed compile (telemetry only): a later
  /// hit on the key credits this much to cache.compile_us_saved.
  std::unordered_map<std::uint64_t, std::uint64_t> compile_us_;
  CacheStats stats_;
  std::shared_ptr<DiskDesignStore> disk_;
};

}  // namespace hlsprof::runner
