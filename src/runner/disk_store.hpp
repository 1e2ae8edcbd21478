// Content-addressed on-disk store of compiled designs — the second tier
// of runner::DesignCache. One file per design key (`<hex-key>.design`),
// payload = hls::serialize_design bytes, guarded by a header carrying a
// store version, a build-compatibility stamp, the key, and a payload
// hash. Crash- and concurrency-safe by construction: writes go to a
// temp file in the same directory and are published with an atomic
// rename, so readers (including other processes) only ever see complete
// entries; any mismatch or truncation on read is a silent miss that the
// cache answers by recompiling and rewriting the entry.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "hls/design.hpp"

namespace hlsprof::runner {

class DiskDesignStore {
 public:
  struct Options {
    /// Store directory; created (recursively) if missing.
    std::string dir;
    /// LRU size cap in bytes, enforced at open time and continuously
    /// after: store() tracks an estimate of the on-disk total and
    /// re-runs the eviction pass whenever a write pushes it past the
    /// cap, so the store stays bounded while processes that share one
    /// --cache-dir keep writing, instead of growing until the next open.
    /// 0 = unbounded.
    std::uint64_t max_bytes = 0;
  };

  struct Stats {
    long long hits = 0;        // load() returned a design
    long long misses = 0;      // load() fell through (absent/corrupt/stale)
    long long evictions = 0;   // entries removed by any LRU eviction pass
    long long bytes_written = 0;
  };

  /// Opens the store: creates the directory, removes stale temp files
  /// left by crashed writers, and runs the LRU eviction pass (oldest
  /// last-use first) if the cap is exceeded. Throws hlsprof::Error only
  /// if the directory cannot be created — an unusable cache location is
  /// a configuration error, unlike a bad entry, which never is.
  explicit DiskDesignStore(Options options);

  /// Fetch the design stored under `key`, or nullptr on any miss:
  /// absent file, bad magic/version, foreign build stamp, key or
  /// payload-hash mismatch, truncation, or a deserializer error. Never
  /// throws; a hit refreshes the entry's last-use time for the LRU.
  std::shared_ptr<const hls::Design> load(std::uint64_t key);

  /// Serialize and publish the entry (temp file + atomic rename).
  /// Best-effort: I/O failure leaves the store unchanged and is not an
  /// error (the in-memory tier still has the design).
  void store(std::uint64_t key, const hls::Design& design);

  const std::string& dir() const { return options_.dir; }
  std::uint64_t max_bytes() const { return options_.max_bytes; }
  Stats stats() const;

  /// Path of the entry file a key maps to (for tests and tooling).
  static std::string entry_path(const std::string& dir, std::uint64_t key);

 private:
  /// Scan the directory (dropping stale temp files when `clean_tmp`),
  /// evict least-recently-used entries while over the cap, and return
  /// the resulting on-disk total. Caller holds mu_ (or is the ctor).
  std::uint64_t scan_and_evict_locked(bool clean_tmp);

  Options options_;
  mutable std::mutex mu_;
  Stats stats_;
  std::uint64_t tmp_seq_ = 0;
  /// Estimated on-disk total: exact after each scan, then grown by every
  /// published write. Overwrites of an existing key double-count (the
  /// estimate only ever errs high), which at worst triggers the rescan —
  /// the amortization, not the correctness, depends on it.
  std::uint64_t approx_bytes_ = 0;
};

}  // namespace hlsprof::runner
