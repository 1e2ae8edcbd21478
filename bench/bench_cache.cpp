// Persistent design-cache benchmark: wall-clock to materialize a thread
// sweep of vectorized GEMM designs cold (compile + write-through to the
// on-disk store) versus warm (a fresh cache over the same directory, so
// every design deserializes from disk instead of compiling). Exits
// non-zero if the warm start is not faster than the cold one — the perf
// contract that makes --cache-dir worth having, enforced by ctest's
// bench_cache_smoke.
//
// The run IS the measurement (one sweep per rep, best-of-reps); it writes
// BENCH_cache.json. Flags: --dim=N --reps=N --out=PATH --cache-dir=DIR.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/argparse.hpp"
#include "common/strings.hpp"
#include "runner/design_cache.hpp"
#include "workloads/gemm.hpp"

using namespace hlsprof;

namespace {

constexpr int kThreadSweep[] = {1, 2, 4, 8, 16};

ir::Kernel sweep_kernel(int dim, int threads) {
  workloads::GemmConfig cfg;
  cfg.dim = dim;
  cfg.threads = threads;
  return workloads::gemm_vectorized(cfg);
}

/// One sweep through a fresh cache over `dir`; every request must come
/// back the `expect_disk_hit` way or the measurement is meaningless.
double time_sweep(const std::string& dir, int dim, bool expect_disk_hit) {
  runner::DesignCache cache;
  cache.attach_disk({dir, 0});
  const auto t0 = std::chrono::steady_clock::now();
  for (int threads : kThreadSweep) {
    auto e = cache.get_or_compile(sweep_kernel(dim, threads), {});
    if (e.design == nullptr || e.hit || e.disk_hit != expect_disk_hit) {
      std::fprintf(stderr,
                   "FATAL: threads=%d expected disk_hit=%d, got hit=%d "
                   "disk_hit=%d\n",
                   threads, int(expect_disk_hit), int(e.hit),
                   int(e.disk_hit));
      std::exit(2);
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  long long dim = 64;
  long long reps = 3;
  std::string out = "BENCH_cache.json";
  std::string dir = "bench_cache.store";
  ArgParser parser;
  parser.option_int("dim", &dim, "GEMM matrix dimension (default 64)")
      .option_int("reps", &reps, "cold/warm sweeps, best kept (default 3)")
      .option("out", &out, "result JSON path (default BENCH_cache.json)")
      .option("cache-dir", &dir,
              "store directory, emptied first (default bench_cache.store)");
  std::string error = parser.parse(argc, argv) ? "" : parser.error();
  for (const auto& [flag, v] :
       {std::pair{"--dim", dim}, std::pair{"--reps", reps}}) {
    if (error.empty() && v < 1) error = std::string(flag) + " must be >= 1";
  }
  if (error.empty() && !parser.positionals().empty()) {
    error = "unexpected argument " + parser.positionals().front();
  }
  if (!error.empty()) {
    std::fprintf(stderr, "bench_cache: %s\nusage: bench_cache [flags]\n%s",
                 error.c_str(), parser.help_text().c_str());
    return 2;
  }

  namespace fs = std::filesystem;
  double cold_best = 0.0;
  double warm_best = 0.0;
  for (int r = 0; r < reps; ++r) {
    // Cold: empty directory, every design compiles and is written back.
    fs::remove_all(dir);
    const double cold = time_sweep(dir, dim, /*expect_disk_hit=*/false);
    // Warm: same directory, fresh cache — every design loads from disk.
    const double warm = time_sweep(dir, dim, /*expect_disk_hit=*/true);
    if (r == 0 || cold < cold_best) cold_best = cold;
    if (r == 0 || warm < warm_best) warm_best = warm;
  }
  std::uint64_t bytes_on_disk = 0;
  for (const auto& de : fs::directory_iterator(dir)) {
    bytes_on_disk += std::uint64_t(de.file_size());
  }
  fs::remove_all(dir);

  const std::size_t designs = std::size(kThreadSweep);
  const double speedup = warm_best > 0 ? cold_best / warm_best : 0.0;
  std::printf("gemm %lldx%lld, %zu designs: cold %.1f ms (compile), warm "
              "%.1f ms (deserialize) -> %.1fx | %llu bytes on disk\n",
              dim, dim, designs, 1e3 * cold_best, 1e3 * warm_best, speedup,
              static_cast<unsigned long long>(bytes_on_disk));

  const std::string json = strf(
      "{\n  \"dim\": %lld,\n  \"reps\": %lld,\n  \"designs\": %zu,\n"
      "  \"cold_seconds\": %.6f,\n  \"warm_seconds\": %.6f,\n"
      "  \"speedup\": %.3f,\n  \"bytes_on_disk\": %llu\n}\n",
      dim, reps, designs, cold_best, warm_best, speedup,
      static_cast<unsigned long long>(bytes_on_disk));
  if (std::FILE* f = std::fopen(out.c_str(), "wb")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", out.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }

  if (warm_best >= cold_best) {
    std::fprintf(stderr,
                 "FAIL: warm start (%.1f ms) not faster than cold compile "
                 "(%.1f ms)\n",
                 1e3 * warm_best, 1e3 * cold_best);
    return 1;
  }
  return 0;
}
