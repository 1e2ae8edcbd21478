// Tests for the persistent design cache (src/runner/disk_store + the
// disk tier of runner::DesignCache): warm starts with zero compiles,
// canonical-report byte identity cold vs warm, corrupted-store recovery
// (truncate / bit-flip / version-bump are clean misses that recompile
// and rewrite), open-time LRU eviction, stale temp cleanup, and the
// key_of determinism contract (same content → same key, across separate
// builds, a serialize round trip, and a re-lowered source dump).
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <utime.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "frontend/lower.hpp"
#include "hls/compiler.hpp"
#include "hls/serialize.hpp"
#include "ir/builder.hpp"
#include "runner/design_cache.hpp"
#include "runner/disk_store.hpp"
#include "runner/runner.hpp"
#include "workloads/gemm.hpp"
#include "workloads/reference.hpp"
#include "workloads/simple.hpp"

namespace hlsprof {
namespace {

namespace fs = std::filesystem;

/// Fresh, empty directory under the gtest temp root.
std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / "hlsprof_dcache" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

ir::Kernel gemm_kernel(int threads, int dim = 16) {
  workloads::GemmConfig cfg;
  cfg.dim = dim;
  cfg.threads = threads;
  return workloads::gemm_vectorized(cfg);
}

runner::JobSpec small_gemm_job(int dim, int threads) {
  workloads::GemmConfig cfg;
  cfg.dim = dim;
  cfg.threads = threads;
  runner::JobSpec spec;
  spec.name = "gemm.t" + std::to_string(threads);
  spec.kernel = [cfg](SplitMix64&) { return workloads::gemm_vectorized(cfg); };
  spec.bind = [dim](core::Session& s, runner::HostBuffers& bufs,
                    SplitMix64& rng) {
    auto& a = bufs.f32(workloads::random_matrix(dim, rng.next()));
    auto& b = bufs.f32(workloads::random_matrix(dim, rng.next()));
    auto& c = bufs.f32(std::size_t(dim) * std::size_t(dim));
    s.sim().bind_f32("A", a);
    s.sim().bind_f32("B", b);
    s.sim().bind_f32("C", c);
  };
  return spec;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), std::streamsize(data.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// Age a file's atime+mtime so the LRU sees it as long unused (the store
/// keys eviction on max(atime, mtime), so both must move).
void age_file(const std::string& path, std::int64_t seconds_ago) {
  struct ::stat st{};
  ASSERT_EQ(::stat(path.c_str(), &st), 0) << path;
  struct ::utimbuf times{};
  times.actime = st.st_atime - seconds_ago;
  times.modtime = st.st_mtime - seconds_ago;
  ASSERT_EQ(::utime(path.c_str(), &times), 0) << path;
}

// ---- warm start ------------------------------------------------------------

TEST(RunnerDiskCache, WarmStartServesEveryMissFromDisk) {
  const std::string dir = fresh_dir("warm");
  const std::vector<int> threads = {1, 2, 4};

  runner::DesignCache cold;
  cold.attach_disk({dir, 0});
  for (int t : threads) {
    auto e = cold.get_or_compile(gemm_kernel(t), {});
    ASSERT_NE(e.design, nullptr);
    EXPECT_FALSE(e.hit);
    EXPECT_FALSE(e.disk_hit);
  }
  EXPECT_EQ(cold.stats().misses, 3);
  EXPECT_EQ(cold.stats().disk_hits, 0);
  EXPECT_EQ(cold.stats().disk_misses, 3);
  ASSERT_NE(cold.disk(), nullptr);
  EXPECT_GT(cold.disk()->stats().bytes_written, 0);

  // A fresh process (modelled by a fresh cache) over the same directory:
  // every in-memory miss is satisfied by the disk tier, zero compiles.
  runner::DesignCache warm;
  warm.attach_disk({dir, 0});
  for (int t : threads) {
    auto e = warm.get_or_compile(gemm_kernel(t), {});
    ASSERT_NE(e.design, nullptr);
    EXPECT_FALSE(e.hit);
    EXPECT_TRUE(e.disk_hit);
    // The warm design is the real thing, not just non-null.
    EXPECT_EQ(hls::encode_source(e.design->kernel, e.design->options),
              hls::encode_source(gemm_kernel(t), {}));
  }
  EXPECT_EQ(warm.stats().misses, 3);
  EXPECT_EQ(warm.stats().disk_hits, 3);
  EXPECT_EQ(warm.stats().disk_misses, 0);
  EXPECT_EQ(warm.disk()->stats().bytes_written, 0);  // nothing rewritten

  // Second request in-process hits the memory tier, not the disk.
  auto again = warm.get_or_compile(gemm_kernel(1), {});
  EXPECT_TRUE(again.hit);
  EXPECT_FALSE(again.disk_hit);
  EXPECT_EQ(warm.stats().disk_hits, 3);
}

TEST(RunnerDiskCache, CanonicalReportsIdenticalColdVsWarm) {
  const std::string dir = fresh_dir("canonical");
  runner::Batch batch;
  batch.add(small_gemm_job(16, 1));
  batch.add(small_gemm_job(16, 2));
  batch.add(small_gemm_job(16, 4));

  runner::BatchOptions opts;
  opts.workers = 2;
  opts.seed = 11;
  opts.cache_dir = dir;

  const runner::BatchResult cold = batch.run(opts);
  ASSERT_TRUE(cold.all_ok());

  runner::BatchResult warm = batch.run(opts);  // fresh cache inside run()
  ASSERT_TRUE(warm.all_ok());

  runner::ReportOptions canon;
  canon.canonical = true;
  EXPECT_EQ(runner::report_json(cold, canon), runner::report_json(warm, canon));
  EXPECT_EQ(runner::report_csv(cold, canon), runner::report_csv(warm, canon));
}

TEST(RunnerDiskCache, ManifestCacheKeysParse) {
  const std::string text =
      "workload = gemm\nversion = vectorized\ndim = 16\nthreads = 1,2\n"
      "cache_dir = /tmp/some-cache\ncache_max_bytes = 4096\n";
  runner::ManifestRun run = runner::parse_manifest(text);
  EXPECT_EQ(run.options.cache_dir, "/tmp/some-cache");
  EXPECT_EQ(run.options.cache_max_bytes, 4096u);

  EXPECT_THROW(runner::parse_manifest("workload = gemm\ndim = 8\n"
                                      "cache_max_bytes = -1\n"),
               Error);
}

// ---- corrupted-store recovery ----------------------------------------------

class RunnerDiskCacheRecovery : public testing::Test {
 protected:
  /// Populate `dir` with one entry and return its file path.
  std::string populate(const std::string& dir) {
    runner::DesignCache cache;
    cache.attach_disk({dir, 0});
    auto e = cache.get_or_compile(gemm_kernel(2), {});
    key_ = e.key;
    const std::string path = runner::DiskDesignStore::entry_path(dir, key_);
    EXPECT_TRUE(fs::exists(path));
    return path;
  }

  /// After corruption: the read must be a clean miss that recompiles,
  /// and the store must end up rewritten so the *next* open hits.
  void expect_recovery(const std::string& dir, const std::string& path) {
    runner::DesignCache cache;
    cache.attach_disk({dir, 0});
    auto e = cache.get_or_compile(gemm_kernel(2), {});
    ASSERT_NE(e.design, nullptr);
    EXPECT_EQ(e.key, key_);
    EXPECT_FALSE(e.disk_hit) << "corrupt entry must not be served";
    EXPECT_EQ(cache.stats().disk_misses, 1);
    EXPECT_GT(cache.disk()->stats().bytes_written, 0) << "entry not rewritten";

    runner::DesignCache after;
    after.attach_disk({dir, 0});
    auto e2 = after.get_or_compile(gemm_kernel(2), {});
    ASSERT_NE(e2.design, nullptr);
    EXPECT_TRUE(e2.disk_hit) << "rewritten entry should hit: " << path;
  }

  std::uint64_t key_ = 0;
};

TEST_F(RunnerDiskCacheRecovery, TruncatedEntryIsACleanMiss) {
  const std::string dir = fresh_dir("trunc");
  const std::string path = populate(dir);
  const std::string good = slurp(path);
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{7}, good.size() / 2, good.size() - 1}) {
    spit(path, good.substr(0, keep));
    expect_recovery(dir, path);
  }
}

TEST_F(RunnerDiskCacheRecovery, BitFlippedEntryIsACleanMiss) {
  const std::string dir = fresh_dir("bitflip");
  const std::string path = populate(dir);
  const std::string good = slurp(path);
  // Flip a byte in the header key/hash region and one deep in the
  // payload; the payload hash catches what the header checks don't.
  for (const std::size_t pos : {std::size_t{20}, good.size() - 5}) {
    std::string bad = good;
    bad[pos] = char(bad[pos] ^ 0x40);
    spit(path, bad);
    expect_recovery(dir, path);
  }
}

TEST_F(RunnerDiskCacheRecovery, VersionBumpedEntryIsACleanMiss) {
  const std::string dir = fresh_dir("verbump");
  const std::string path = populate(dir);
  std::string bad = slurp(path);
  bad[8] = char(bad[8] + 1);  // u32 store version follows the 8-byte magic
  spit(path, bad);
  expect_recovery(dir, path);
}

TEST_F(RunnerDiskCacheRecovery, ForeignBuildStampIsACleanMiss) {
  const std::string dir = fresh_dir("stamp");
  const std::string path = populate(dir);
  std::string bad = slurp(path);
  bad[16] = char(bad[16] ^ 0x01);  // first byte of the compat stamp string
  spit(path, bad);
  expect_recovery(dir, path);
}

// ---- store hygiene ---------------------------------------------------------

TEST(RunnerDiskCache, OpenRemovesStaleTempFilesButSparesFreshOnes) {
  const std::string dir = fresh_dir("tmpclean");
  const std::string stale = dir + "/.tmp-deadbeef-1-0";
  spit(stale, "half-written entry");
  age_file(stale, 3600);  // a crashed writer's leftover is old by now
  // A fresh temp file may be another process's write in progress on the
  // shared --cache-dir: deleting it would make that writer's publish
  // rename silently fail.
  const std::string fresh = dir + "/.tmp-cafef00d-2-0";
  spit(fresh, "sibling writing right now");
  const std::string foreign = dir + "/README.txt";
  spit(foreign, "not ours");

  runner::DiskDesignStore store({dir, 0});
  EXPECT_FALSE(fs::exists(stale)) << "crashed-writer temp not cleaned";
  EXPECT_TRUE(fs::exists(fresh)) << "live sibling temp must survive open";
  EXPECT_TRUE(fs::exists(foreign)) << "foreign files must be left alone";
}

TEST(RunnerDiskCache, OpenEvictsLeastRecentlyUsedOverCap) {
  const std::string dir = fresh_dir("lru");
  runner::DiskDesignStore writer({dir, 0});
  std::vector<std::uint64_t> keys;
  std::uint64_t entry_size = 0;
  for (int t : {1, 2, 4, 8}) {
    const hls::Design d = hls::compile(gemm_kernel(t));
    const std::uint64_t key = runner::DesignCache::key_of(d.kernel, d.options);
    writer.store(key, d);
    keys.push_back(key);
    entry_size = std::uint64_t(
        fs::file_size(runner::DiskDesignStore::entry_path(dir, key)));
  }
  ASSERT_GT(entry_size, 0u);

  // Make the first two entries look long unused; reopen with room for
  // only two entries → exactly the stale pair goes.
  age_file(runner::DiskDesignStore::entry_path(dir, keys[0]), 3000);
  age_file(runner::DiskDesignStore::entry_path(dir, keys[1]), 2000);

  runner::DiskDesignStore reopened({dir, 2 * entry_size + entry_size / 2});
  EXPECT_EQ(reopened.stats().evictions, 2);
  EXPECT_FALSE(fs::exists(runner::DiskDesignStore::entry_path(dir, keys[0])));
  EXPECT_FALSE(fs::exists(runner::DiskDesignStore::entry_path(dir, keys[1])));
  EXPECT_TRUE(fs::exists(runner::DiskDesignStore::entry_path(dir, keys[2])));
  EXPECT_TRUE(fs::exists(runner::DiskDesignStore::entry_path(dir, keys[3])));

  // Survivors still load.
  EXPECT_NE(reopened.load(keys[2]), nullptr);
  EXPECT_EQ(reopened.load(keys[0]), nullptr);
}

TEST(RunnerDiskCache, SteadyStateStoresStayUnderCapWithoutReopen) {
  // A process that keeps writing never reopens its store, so the cap must
  // hold across store() calls, not just at open. Measure one entry first to
  // size a cap with room for roughly two.
  const std::string probe_dir = fresh_dir("steady-probe");
  runner::DiskDesignStore probe({probe_dir, 0});
  const hls::Design probed = hls::compile(gemm_kernel(8));
  const std::uint64_t probe_key =
      runner::DesignCache::key_of(probed.kernel, probed.options);
  probe.store(probe_key, probed);
  const std::uint64_t entry_size = std::uint64_t(
      fs::file_size(runner::DiskDesignStore::entry_path(probe_dir, probe_key)));
  ASSERT_GT(entry_size, 0u);
  const std::uint64_t cap = 2 * entry_size + entry_size / 2;

  const std::string dir = fresh_dir("steady");
  runner::DiskDesignStore store({dir, cap});
  std::vector<std::uint64_t> keys;
  for (int t : {1, 2, 4, 8}) {
    // Backdate everything already on disk so the LRU order is stable
    // regardless of filesystem timestamp granularity.
    for (std::uint64_t k : keys) {
      const std::string path = runner::DiskDesignStore::entry_path(dir, k);
      if (fs::exists(path)) age_file(path, 1000);
    }
    const hls::Design d = hls::compile(gemm_kernel(t));
    const std::uint64_t key = runner::DesignCache::key_of(d.kernel, d.options);
    store.store(key, d);
    keys.push_back(key);

    std::uint64_t total = 0;
    for (const auto& de : fs::directory_iterator(dir))
      total += std::uint64_t(fs::file_size(de.path()));
    EXPECT_LE(total, cap) << "on-disk total over cap after storing t=" << t;
  }

  EXPECT_GE(store.stats().evictions, 1);
  EXPECT_FALSE(fs::exists(runner::DiskDesignStore::entry_path(dir, keys[0])))
      << "oldest entry must be the first evicted";
  EXPECT_NE(store.load(keys.back()), nullptr)
      << "the entry just stored must survive its own eviction pass";
}

TEST(RunnerDiskCache, UnboundedStoreNeverEvicts) {
  const std::string dir = fresh_dir("nolimit");
  runner::DiskDesignStore writer({dir, 0});
  const hls::Design d = hls::compile(gemm_kernel(2));
  const std::uint64_t key = runner::DesignCache::key_of(d.kernel, d.options);
  writer.store(key, d);
  age_file(runner::DiskDesignStore::entry_path(dir, key), 100000);

  runner::DiskDesignStore reopened({dir, 0});
  EXPECT_EQ(reopened.stats().evictions, 0);
  EXPECT_NE(reopened.load(key), nullptr);
}

// ---- key determinism (satellite) -------------------------------------------

TEST(RunnerCacheKey, IdenticalContentBuiltTwiceYieldsSameKey) {
  const hls::HlsOptions opts;
  // Two independent builds of the same generator must agree, and
  // distinct parameterizations must not collide with each other.
  std::vector<std::uint64_t> keys;
  for (int t : {1, 2, 4}) {
    const std::uint64_t a = runner::DesignCache::key_of(gemm_kernel(t), opts);
    const std::uint64_t b = runner::DesignCache::key_of(gemm_kernel(t), opts);
    EXPECT_EQ(a, b) << "threads=" << t;
    keys.push_back(a);
  }
  EXPECT_NE(keys[0], keys[1]);
  EXPECT_NE(keys[1], keys[2]);

  const std::uint64_t v1 =
      runner::DesignCache::key_of(workloads::vecadd(64, 4), opts);
  const std::uint64_t v2 =
      runner::DesignCache::key_of(workloads::vecadd(64, 4), opts);
  EXPECT_EQ(v1, v2);
}

TEST(RunnerCacheKey, ReLoweredSourceYieldsSameKey) {
  // The key is content-addressed over the serialized kernel, so lowering
  // the same source twice — two fully independent front-end passes — must
  // land on the same key, byte-identical source encoding included.
  constexpr const char* kSrc = R"(
void scale(float* x, int n) {
  #pragma omp target parallel map(tofrom: x[0:64]) num_threads(4)
  {
    int tid = omp_get_thread_num();
    for (int i = tid; i < n; i += omp_get_num_threads()) {
      x[i] = x[i] * 2.0f;
    }
  }
}
)";
  frontend::LowerOptions lopts;
  lopts.constants["n"] = 64;
  const ir::Kernel k1 = frontend::compile_source(kSrc, lopts);
  const ir::Kernel k2 = frontend::compile_source(kSrc, lopts);
  const hls::HlsOptions opts;
  EXPECT_EQ(hls::encode_source(k1, opts), hls::encode_source(k2, opts));
  EXPECT_EQ(runner::DesignCache::key_of(k1, opts),
            runner::DesignCache::key_of(k2, opts));
}

TEST(RunnerCacheKey, SerializeRoundTripPreservesKey) {
  const hls::HlsOptions opts;
  const ir::Kernel k = gemm_kernel(4);
  const std::uint64_t key = runner::DesignCache::key_of(k, opts);
  const hls::Design d = hls::compile(gemm_kernel(4), opts);
  const hls::Design back = hls::deserialize_design(hls::serialize_design(d));
  EXPECT_EQ(runner::DesignCache::key_of(back.kernel, back.options), key);
}

ir::Kernel scale_by(double factor) {
  ir::KernelBuilder kb("scale", 2);
  auto x = kb.ptr_arg("x", ir::Type::f32(), ir::MapDir::tofrom, 8);
  kb.for_loop("i", kb.thread_id(), kb.c32(8), kb.num_threads_val(),
              [&](ir::Val i) {
                kb.store(x, i, kb.load(x, i) * kb.cf32(factor));
              });
  return std::move(kb).finish();
}

TEST(RunnerCacheKey, FloatConstantsDifferingInTheSeventhDigitDoNotAlias) {
  // `%g` renders both constants as 0.123457; the key must not.
  const hls::HlsOptions opts;
  EXPECT_NE(runner::DesignCache::key_of(scale_by(0.1234567), opts),
            runner::DesignCache::key_of(scale_by(0.1234568), opts));
  runner::DesignCache cache;
  EXPECT_FALSE(cache.get_or_compile(scale_by(0.1234567), opts).hit);
  const auto second = cache.get_or_compile(scale_by(0.1234568), opts);
  EXPECT_FALSE(second.hit);
  const auto& ops = second.design->kernel.ops;
  EXPECT_TRUE(std::any_of(ops.begin(), ops.end(), [](const ir::Op& op) {
    return op.opcode == ir::Opcode::const_float && op.f_imm == 0.1234568;
  }));
}

TEST(RunnerCacheKey, OptionsThatChangeCompilationChangeTheKey) {
  const ir::Kernel k = gemm_kernel(2);
  hls::HlsOptions a;
  hls::HlsOptions b;
  b.lib.lat_fmul += 1;
  EXPECT_NE(runner::DesignCache::key_of(k, a),
            runner::DesignCache::key_of(k, b));
  hls::HlsOptions c;
  c.thread_reordering = !c.thread_reordering;
  EXPECT_NE(runner::DesignCache::key_of(k, a),
            runner::DesignCache::key_of(k, c));
}

}  // namespace
}  // namespace hlsprof
