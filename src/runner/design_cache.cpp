#include "runner/design_cache.hpp"

#include <chrono>
#include <utility>

#include "common/hash.hpp"
#include "hls/serialize.hpp"
#include "telemetry/telemetry.hpp"

namespace hlsprof::runner {

namespace {

/// Cache telemetry handles, resolved once per process. These aggregate
/// over every DesignCache instance (the registry is process-wide).
struct CacheMetrics {
  telemetry::Counter& hits;
  telemetry::Counter& misses;
  telemetry::Counter& singleflight_waits;
  telemetry::Counter& compile_us_saved;
  static CacheMetrics& get() {
    auto& reg = telemetry::Registry::global();
    static CacheMetrics m{
        reg.counter("cache.hits"),
        reg.counter("cache.misses"),
        reg.counter("cache.singleflight_waits"),
        reg.counter("cache.compile_us_saved", "us"),
    };
    return m;
  }
};

}  // namespace

std::uint64_t DesignCache::key_of(const ir::Kernel& kernel,
                                  const hls::HlsOptions& options) {
  return fnv1a64(hls::encode_source(kernel, options));
}

DesignCache::Entry DesignCache::get_or_compile(
    ir::Kernel kernel, const hls::HlsOptions& options) {
  auto& reg = telemetry::Registry::global();
  Entry entry;
  entry.key = key_of(kernel, options);

  std::promise<std::shared_ptr<const hls::Design>> promise;
  Future future;
  bool compile_here = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(entry.key);
    if (it != map_.end()) {
      future = it->second;
      entry.hit = true;
      ++stats_.hits;
    } else {
      future = promise.get_future().share();
      map_.emplace(entry.key, future);
      compile_here = true;
      ++stats_.misses;
    }
  }

  if (compile_here) {
    if (reg.enabled()) CacheMetrics::get().misses.add(1);
    std::shared_ptr<DiskDesignStore> disk;
    {
      std::lock_guard<std::mutex> lock(mu_);
      disk = disk_;
    }
    try {
      // Tier 2: a deserialized entry replaces the compile entirely. Any
      // kind of bad entry (truncated, corrupt, stale build) is a plain
      // nullptr here, and the compile below rewrites it.
      std::shared_ptr<const hls::Design> from_disk =
          disk != nullptr ? disk->load(entry.key) : nullptr;
      if (from_disk != nullptr) {
        entry.disk_hit = true;
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.disk_hits;
        }
        promise.set_value(std::move(from_disk));
        entry.design = future.get();
        return entry;
      }
      if (disk != nullptr) {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.disk_misses;
      }
      telemetry::Span span(reg, "cache.compile", "runner");
      const std::uint64_t t0 = reg.enabled() ? reg.now_us() : 0;
      auto compiled = std::make_shared<const hls::Design>(
          hls::compile(std::move(kernel), options));
      if (disk != nullptr) disk->store(entry.key, *compiled);
      promise.set_value(std::move(compiled));
      if (reg.enabled()) {
        std::lock_guard<std::mutex> lock(mu_);
        compile_us_[entry.key] = reg.now_us() - t0;
      }
    } catch (...) {
      promise.set_exception(std::current_exception());
      {
        std::lock_guard<std::mutex> lock(mu_);
        map_.erase(entry.key);
      }
      future.get();  // rethrow for this caller
    }
  } else if (reg.enabled()) {
    CacheMetrics& m = CacheMetrics::get();
    m.hits.add(1);
    // A hit whose compile is still in flight: this caller blocks on the
    // one compile instead of duplicating it (the single-flight path).
    if (future.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      m.singleflight_waits.add(1);
    }
  }

  entry.design = future.get();  // waits for / rethrows an in-flight compile

  if (entry.hit && reg.enabled()) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = compile_us_.find(entry.key);
    if (it != compile_us_.end()) {
      CacheMetrics::get().compile_us_saved.add(
          static_cast<long long>(it->second));
    }
  }
  return entry;
}

void DesignCache::attach_disk(DiskDesignStore::Options options) {
  // Construct outside the lock: opening runs directory creation and the
  // eviction pass, neither of which needs (or should hold) the map mutex.
  auto store = std::make_shared<DiskDesignStore>(std::move(options));
  std::lock_guard<std::mutex> lock(mu_);
  disk_ = std::move(store);
}

std::shared_ptr<const DiskDesignStore> DesignCache::disk() const {
  std::lock_guard<std::mutex> lock(mu_);
  return disk_;
}

CacheStats DesignCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace hlsprof::runner
