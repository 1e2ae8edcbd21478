#include "runner/design_cache.hpp"

#include <chrono>
#include <utility>

#include "common/hash.hpp"
#include "ir/printer.hpp"
#include "telemetry/telemetry.hpp"

namespace hlsprof::runner {

namespace {

void hash_area(Fnv1a64& h, const hls::Area& a) {
  h.f64(a.alm).f64(a.ff).f64(a.dsp).f64(a.bram_bits);
}

// Every field of HlsOptions that influences compile() output must be fed
// in here; a missed field would alias distinct designs onto one key.
void hash_options(Fnv1a64& h, const hls::HlsOptions& o) {
  const hls::ResourceLibrary& lib = o.lib;
  h.i64(lib.lat_int_alu).i64(lib.lat_int_mul).i64(lib.lat_int_div);
  h.i64(lib.lat_fadd).i64(lib.lat_fmul).i64(lib.lat_fdiv);
  h.i64(lib.lat_cast).i64(lib.lat_local_mem).i64(lib.lat_shuffle);
  h.i64(lib.lat_reduce_per_level).i64(lib.ext_assumed_min);
  hash_area(h, lib.area_int_alu);
  hash_area(h, lib.area_int_mul);
  hash_area(h, lib.area_int_div);
  hash_area(h, lib.area_fadd);
  hash_area(h, lib.area_fmul);
  hash_area(h, lib.area_fdiv);
  hash_area(h, lib.area_cast);
  hash_area(h, lib.area_shuffle);
  hash_area(h, lib.area_mem_port);

  const hls::InfraCosts& infra = o.infra;
  hash_area(h, infra.platform_shell);
  hash_area(h, infra.avalon_master_per_thread);
  hash_area(h, infra.avalon_slave);
  hash_area(h, infra.bus_per_port);
  hash_area(h, infra.controller_per_stage);
  hash_area(h, infra.hts_per_reordering_stage);
  hash_area(h, infra.semaphore);
  hash_area(h, infra.preloader);
  h.f64(infra.ff_per_live_bit).f64(infra.alm_per_live_bit);
  h.f64(infra.context_bram_bits_per_thread_bit);

  const hls::FmaxModel& fmax = o.fmax;
  h.f64(fmax.base_mhz).f64(fmax.alm_penalty_per_log2);
  h.f64(fmax.port_penalty).f64(fmax.floor_mhz);

  h.boolean(o.enable_preloader).boolean(o.thread_reordering);
}

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
  Fnv1a64 h;
  h.str(ir::print(kernel));
  // The printer focuses on the control/op structure; fold in the kernel
  // header fields explicitly in case a future printer elides one.
  h.str(kernel.name).i64(kernel.num_threads).i64(kernel.num_loops);
  h.i64(kernel.num_locks);
  hash_options(h, options);
  return h.digest();
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
