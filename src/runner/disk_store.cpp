#include "runner/disk_store.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <string_view>
#include <utility>
#include <vector>

#include "common/build_info.hpp"
#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"
#include "hls/serialize.hpp"
#include "telemetry/telemetry.hpp"

namespace hlsprof::runner {

namespace fs = std::filesystem;

namespace {

// Entry file layout (all little-endian via common/bytes):
//   8 bytes   magic "HLSPROFD"
//   u32       store version (kStoreVersion)
//   str       build-compatibility stamp (see compat_stamp())
//   u64       design key (must match the file name's hex digest)
//   u64       FNV-1a hash of the payload bytes
//   u64       payload size in bytes
//   payload   hls::serialize_design bytes (self-versioned again)
// Readers verify every field before touching the payload; any mismatch
// is a miss. The double versioning is deliberate: the store version
// covers this header, kDesignFormatVersion covers the payload encoding.
constexpr char kMagic[8] = {'H', 'L', 'S', 'P', 'R', 'O', 'F', 'D'};
constexpr std::uint32_t kStoreVersion = 1;

constexpr const char* kEntrySuffix = ".design";
constexpr const char* kTmpPrefix = ".tmp-";
/// A temp file this old is a crashed writer's leftover, not a live
/// write: store() publishes within the time of one compile (seconds).
/// Younger temp files may belong to another hlsprof-run process that
/// shares the --cache-dir and is writing while this one opens it.
constexpr std::int64_t kTmpMaxAgeSeconds = 600;

/// Entries are only valid for the build that wrote them: the payload
/// layout is struct-derived, so compiler/version drift must invalidate
/// the store (a stale entry is a miss, never a wrong answer). The
/// serialize-format version is folded in so bumping it invalidates old
/// stores even when the binary stamp happens to match.
std::string compat_stamp() {
  return build_info_string() + " fmt" +
         std::to_string(hls::kDesignFormatVersion);
}

struct StoreMetrics {
  telemetry::Counter& disk_hits;
  telemetry::Counter& disk_misses;
  telemetry::Counter& evictions;
  telemetry::Counter& bytes_written;
  telemetry::Counter& deserialize_us;
  static StoreMetrics& get() {
    auto& reg = telemetry::Registry::global();
    static StoreMetrics m{
        reg.counter("cache.disk_hits"),
        reg.counter("cache.disk_misses"),
        reg.counter("cache.evictions"),
        reg.counter("cache.bytes_written", "bytes"),
        reg.counter("cache.deserialize_us", "us"),
    };
    return m;
  }
};

/// Whole-file read; empty optional on any I/O error.
bool read_file(const std::string& path, std::string& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::string data;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) data.append(buf, n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) return false;
  out = std::move(data);
  return true;
}

/// Last-use time of an entry for the LRU: max(atime, mtime). atime alone
/// is unreliable (noatime/relatime mounts), so hits also bump mtime via
/// utimensat — whichever the filesystem keeps fresher wins.
struct EntryInfo {
  fs::path path;
  std::uint64_t size = 0;
  std::int64_t last_use = 0;  // seconds since epoch
};

bool stat_entry(const fs::path& p, EntryInfo& out) {
  struct ::stat st{};
  if (::stat(p.c_str(), &st) != 0) return false;
  out.path = p;
  out.size = std::uint64_t(st.st_size);
  out.last_use = std::max<std::int64_t>(st.st_atime, st.st_mtime);
  return true;
}

}  // namespace

std::string DiskDesignStore::entry_path(const std::string& dir,
                                        std::uint64_t key) {
  return (fs::path(dir) / (hex_digest(key) + kEntrySuffix)).string();
}

DiskDesignStore::DiskDesignStore(Options options)
    : options_(std::move(options)) {
  HLSPROF_CHECK(!options_.dir.empty(), "disk cache: empty directory");
  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  if (ec || !fs::is_directory(options_.dir)) {
    fail("disk cache: cannot create directory " + options_.dir + ": " +
         ec.message());
  }
  approx_bytes_ = scan_and_evict_locked(/*clean_tmp=*/true);
}

std::uint64_t DiskDesignStore::scan_and_evict_locked(bool clean_tmp) {
  std::error_code ec;
  std::vector<EntryInfo> entries;
  std::uint64_t total = 0;
  for (const auto& de : fs::directory_iterator(options_.dir, ec)) {
    const std::string name = de.path().filename().string();
    if (name.rfind(kTmpPrefix, 0) == 0) {
      // A crashed writer's leftover was never published and is safe to
      // drop at open — but only once demonstrably stale. Two hlsprof-run
      // processes may share one --cache-dir, so one can open the store
      // while the other is mid-write; deleting a live temp file would
      // make the writer's rename silently fail and lose the entry. Mid-run
      // passes leave temp files alone entirely.
      if (clean_tmp) {
        struct ::stat st{};
        if (::stat(de.path().c_str(), &st) == 0 &&
            std::int64_t(st.st_mtime) + kTmpMaxAgeSeconds <
                std::int64_t(::time(nullptr))) {
          fs::remove(de.path(), ec);
        }
      }
      continue;
    }
    if (name.size() <= std::string_view(kEntrySuffix).size() ||
        name.substr(name.size() - std::string_view(kEntrySuffix).size()) !=
            kEntrySuffix) {
      continue;  // foreign file; leave it alone
    }
    EntryInfo info;
    if (stat_entry(de.path(), info)) {
      total += info.size;
      entries.push_back(std::move(info));
    }
  }
  if (options_.max_bytes == 0 || total <= options_.max_bytes) return total;

  // Evict least-recently-used first until under the cap. Ties break on
  // the path for determinism.
  std::sort(entries.begin(), entries.end(),
            [](const EntryInfo& a, const EntryInfo& b) {
              if (a.last_use != b.last_use) return a.last_use < b.last_use;
              return a.path < b.path;
            });
  auto& reg = telemetry::Registry::global();
  for (const EntryInfo& e : entries) {
    if (total <= options_.max_bytes) break;
    if (!fs::remove(e.path, ec)) continue;
    total -= std::min(total, e.size);
    ++stats_.evictions;
    if (reg.enabled()) StoreMetrics::get().evictions.add(1);
  }
  return total;
}

std::shared_ptr<const hls::Design> DiskDesignStore::load(std::uint64_t key) {
  auto& reg = telemetry::Registry::global();
  const std::string path = entry_path(options_.dir, key);

  const auto miss = [&]() -> std::shared_ptr<const hls::Design> {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.misses;
    if (reg.enabled()) StoreMetrics::get().disk_misses.add(1);
    return nullptr;
  };

  std::string data;
  if (!read_file(path, data)) return miss();

  try {
    const std::uint64_t t0 = reg.enabled() ? reg.now_us() : 0;
    ByteReader r(data);
    const std::string_view magic = r.view(sizeof kMagic);
    if (std::string_view(kMagic, sizeof kMagic) != magic) return miss();
    if (r.u32() != kStoreVersion) return miss();
    if (r.str() != compat_stamp()) return miss();
    if (r.u64() != key) return miss();
    const std::uint64_t payload_hash = r.u64();
    const std::uint64_t payload_size = r.u64();
    if (payload_size != r.remaining()) return miss();
    const std::string_view payload = r.view(std::size_t(payload_size));
    if (Fnv1a64{}.str(payload).digest() != payload_hash) return miss();

    auto design = std::make_shared<const hls::Design>(
        hls::deserialize_design(payload));
    if (reg.enabled()) {
      StoreMetrics& m = StoreMetrics::get();
      m.disk_hits.add(1);
      m.deserialize_us.add(static_cast<long long>(reg.now_us() - t0));
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.hits;
    }
    // Refresh last-use (both atime and mtime) for the LRU; best-effort.
    ::utimensat(AT_FDCWD, path.c_str(), nullptr, 0);
    return design;
  } catch (...) {
    // Corrupt or incompatible entry: a miss by contract. The compile
    // that follows rewrites the file with good bytes.
    return miss();
  }
}

void DiskDesignStore::store(std::uint64_t key, const hls::Design& design) {
  auto& reg = telemetry::Registry::global();
  try {
    const std::string payload = hls::serialize_design(design);
    ByteWriter w;
    w.bytes(kMagic, sizeof kMagic);
    w.u32(kStoreVersion);
    w.str(compat_stamp());
    w.u64(key);
    w.u64(Fnv1a64{}.str(payload).digest());
    w.u64(payload.size());
    w.bytes(payload.data(), payload.size());
    const std::string& blob = w.data();

    std::string tmp;
    {
      std::lock_guard<std::mutex> lock(mu_);
      tmp = (fs::path(options_.dir) /
             (kTmpPrefix + hex_digest(key) + "-" +
              std::to_string(::getpid()) + "-" + std::to_string(tmp_seq_++)))
                .string();
    }
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr) return;
    const bool wrote = std::fwrite(blob.data(), 1, blob.size(), f) ==
                       blob.size();
    // Flush to stable storage before publishing: after the rename the
    // entry must be complete even across a crash.
    const bool flushed = wrote && std::fflush(f) == 0 &&
                         ::fsync(::fileno(f)) == 0;
    std::fclose(f);
    std::error_code ec;
    if (!flushed) {
      fs::remove(tmp, ec);
      return;
    }
    fs::rename(tmp, entry_path(options_.dir, key), ec);
    if (ec) {
      fs::remove(tmp, ec);
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.bytes_written += static_cast<long long>(blob.size());
      // Steady-state cap enforcement: once the write estimate crosses the
      // cap, rescan and evict. This sits on the compile path (store() only
      // runs after the far more expensive compile, never on load()), and
      // the rescan amortizes: each pass frees real headroom that many
      // writes then consume before the next one triggers.
      approx_bytes_ += blob.size();
      if (options_.max_bytes != 0 && approx_bytes_ > options_.max_bytes) {
        approx_bytes_ = scan_and_evict_locked(/*clean_tmp=*/false);
      }
    }
    if (reg.enabled()) {
      StoreMetrics::get().bytes_written.add(
          static_cast<long long>(blob.size()));
    }
  } catch (...) {
    // Best-effort by contract: a failed write only costs the next run a
    // recompile.
  }
}

DiskDesignStore::Stats DiskDesignStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace hlsprof::runner
