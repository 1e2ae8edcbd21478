#include "runner/manifest.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "workloads/gemm.hpp"
#include "workloads/pi.hpp"
#include "workloads/reference.hpp"
#include "workloads/simple.hpp"

namespace hlsprof::runner {

namespace {

// One key's values plus declaration order (sweep order must follow the
// manifest, not map iteration) and source position for error messages.
struct KeyValues {
  int order = 0;
  int line = 0;  // 1-based manifest line the key was declared on
  std::vector<std::string> values;
};

using KeyMap = std::map<std::string, KeyValues>;

const std::vector<std::string> kSweepKeys = {
    "version", "dim",    "threads",         "block",
    "vector_len", "steps", "unroll",        "n",
    "sampling_period", "buffer_lines", "thread_reordering"};

const std::vector<std::string> kScalarKeys = {
    "workload", "profiling", "thread_start_interval", "max_cycles",
    "workers",  "seed",      "verify",                "out",
    "label",    "cache_dir", "cache_max_bytes",       "approx_trace"};

// Every integer-valued key, sweep or scalar, with its valid range:
// validated eagerly at parse time so a bad value is reported with its
// manifest line, not from deep inside job construction. Keys narrowed to
// `int`, or to a 32-bit kernel value (`steps`, `n`), stop at INT_MAX, so
// no value wraps into a different job.
struct IntRange {
  std::int64_t min;
  std::int64_t max;
};
constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();
const std::map<std::string, IntRange> kIntKeys = {
    {"dim", {1, kIntMax}},
    {"threads", {1, kIntMax}},
    {"block", {1, kIntMax}},
    {"vector_len", {1, kIntMax}},
    {"steps", {1, kIntMax}},
    {"unroll", {1, ir::kMaxLanes}},  // pi's lanes per iteration
    {"n", {1, kIntMax}},
    {"sampling_period", {1, kInt64Max}},
    {"buffer_lines", {1, kIntMax}},
    {"workers", {0, kIntMax}},
    {"seed", {0, kInt64Max}},
    {"thread_start_interval", {0, kInt64Max}},
    {"max_cycles", {0, kInt64Max}},
    {"cache_max_bytes", {0, kInt64Max}},
};

const std::vector<std::string> kOnOffKeys = {"profiling", "verify",
                                             "thread_reordering",
                                             "approx_trace"};

bool contains(const std::vector<std::string>& list, const std::string& k) {
  for (const auto& s : list) {
    if (s == k) return true;
  }
  return false;
}

bool known_key(const std::string& k) {
  return contains(kSweepKeys, k) || contains(kScalarKeys, k);
}

/// "manifest:<line>: " prefix when the line is known; plain "manifest: "
/// otherwise (values that reached us without source position).
std::string at(int line) {
  return line > 0 ? "manifest:" + std::to_string(line) + ": " : "manifest: ";
}

[[noreturn]] void bad_value(const std::string& key, const std::string& value,
                            const std::string& expected, int line) {
  fail(at(line) + "key '" + key + "': expected " + expected + ", got \"" +
       value + "\"");
}

std::int64_t parse_int(const std::string& key, const std::string& v,
                       int line = 0) {
  try {
    std::size_t used = 0;
    const long long out = std::stoll(v, &used);
    if (used != v.size()) bad_value(key, v, "an integer", line);
    return out;
  } catch (const Error&) {
    throw;
  } catch (const std::exception&) {
    bad_value(key, v, "an integer", line);
  }
}

bool parse_on_off(const std::string& key, const std::string& v,
                  int line = 0) {
  if (v == "on" || v == "true" || v == "1") return true;
  if (v == "off" || v == "false" || v == "0") return false;
  bad_value(key, v, "on/off", line);
}

KeyMap parse_keys(const std::string& text) {
  KeyMap keys;
  int order = 0;
  int lineno = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string raw = trim(line);
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      fail(at(lineno) + "expected `key = value`, got \"" + raw + "\"");
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (!known_key(key)) {
      fail(at(lineno) + "unknown key '" + key + "' (sweep keys: " +
           join(kSweepKeys, ", ") + "; scalar keys: " +
           join(kScalarKeys, ", ") + ")");
    }
    if (keys.count(key) != 0) {
      fail(at(lineno) + "duplicate key '" + key + "' (first declared on line " +
           std::to_string(keys[key].line) + ")");
    }
    KeyValues kv;
    kv.order = order++;
    kv.line = lineno;
    for (const std::string& part : split(value, ',')) {
      const std::string v = trim(part);
      if (!v.empty()) kv.values.push_back(v);
    }
    if (kv.values.empty()) {
      fail(at(lineno) + "key '" + key + "' has an empty value");
    }
    keys[key] = kv;
  }
  // Eager type validation: report bad values against their source line
  // while we still know it.
  for (const auto& [key, kv] : keys) {
    if (const auto range = kIntKeys.find(key); range != kIntKeys.end()) {
      for (const auto& v : kv.values) {
        const std::int64_t n = parse_int(key, v, kv.line);
        if (n < range->second.min) {
          fail(at(kv.line) + "key '" + key + "': must be >= " +
               std::to_string(range->second.min) + " (got " + v + ")");
        }
        if (n > range->second.max) {
          fail(at(kv.line) + "key '" + key + "': must be <= " +
               std::to_string(range->second.max) + " (got " + v + ")");
        }
      }
    } else if (contains(kOnOffKeys, key)) {
      for (const auto& v : kv.values) parse_on_off(key, v, kv.line);
    }
  }
  return keys;
}

/// One fully resolved combination of sweep values.
using Combo = std::map<std::string, std::string>;

std::string scalar(const KeyMap& keys, const std::string& key,
                   const std::string& fallback) {
  auto it = keys.find(key);
  if (it == keys.end()) return fallback;
  if (it->second.values.size() != 1) {
    fail(at(it->second.line) + "key '" + key +
         "' must have a single value, got " +
         std::to_string(it->second.values.size()) + " (" +
         join(it->second.values, ", ") + ")");
  }
  return it->second.values[0];
}

std::int64_t combo_int(const Combo& c, const std::string& key,
                       std::int64_t fallback) {
  auto it = c.find(key);
  return it == c.end() ? fallback : parse_int(key, it->second);
}

const workloads::GemmVersion& gemm_version_named(const std::string& name) {
  // Manifest names use the identifier style, the version table the paper's
  // display names; accept both.
  static const std::vector<std::pair<std::string, std::size_t>> kAlias = {
      {"naive", 0},      {"no_critical", 1},     {"vectorized", 2},
      {"blocked", 3},    {"double_buffered", 4},
  };
  const auto& versions = workloads::gemm_versions();
  for (const auto& [alias, idx] : kAlias) {
    if (alias == name) return versions[idx];
  }
  for (const auto& v : versions) {
    if (v.name == name) return v;
  }
  std::string known;
  for (const auto& [alias, idx] : kAlias) {
    (void)idx;
    known += (known.empty() ? "" : ", ") + alias;
  }
  fail("manifest: key 'version': unknown gemm version \"" + name +
       "\" (known: " + known + ", preloaded)");
}

std::string combo_suffix(const Combo& c,
                         const std::vector<std::string>& swept) {
  std::string out;
  for (const auto& key : swept) {
    out += "." + key + "=" + c.at(key);
  }
  return out;
}

JobSpec make_gemm_job(const Combo& c, const std::string& name, bool verify) {
  workloads::GemmConfig cfg;
  cfg.dim = int(combo_int(c, "dim", 64));
  cfg.threads = int(combo_int(c, "threads", 8));
  cfg.vector_len = int(combo_int(c, "vector_len", 4));
  cfg.block = int(combo_int(c, "block", 8));
  const std::string version =
      c.count("version") ? c.at("version") : std::string("vectorized");

  JobSpec spec;
  spec.name = name;
  if (version == "preloaded") {
    spec.kernel = [cfg](SplitMix64&) { return workloads::gemm_preloaded(cfg); };
  } else {
    const workloads::GemmVersion& v = gemm_version_named(version);
    spec.kernel = [cfg, build = v.build](SplitMix64&) { return build(cfg); };
  }
  const int dim = cfg.dim;
  spec.bind = [dim](core::Session& s, HostBuffers& bufs, SplitMix64& rng) {
    auto& a = bufs.f32(workloads::random_matrix(dim, rng.next()));
    auto& b = bufs.f32(workloads::random_matrix(dim, rng.next()));
    auto& out = bufs.f32(std::size_t(dim) * std::size_t(dim));
    s.sim().bind_f32("A", a);
    s.sim().bind_f32("B", b);
    s.sim().bind_f32("C", out);
  };
  if (verify) {
    spec.check = [dim](const core::RunResult&, HostBuffers& bufs) {
      const auto ref = workloads::gemm_reference(bufs.f32_at(0),
                                                 bufs.f32_at(1), dim);
      const double err = workloads::max_rel_error(bufs.f32_at(2), ref);
      if (err > 1e-3) {
        fail("gemm verification failed: max rel error " + std::to_string(err));
      }
    };
  }
  return spec;
}

JobSpec make_pi_job(const Combo& c, const std::string& name, bool verify) {
  workloads::PiConfig cfg;
  cfg.steps = combo_int(c, "steps", 1000000);
  cfg.threads = int(combo_int(c, "threads", 8));
  cfg.unroll = int(combo_int(c, "unroll", 16));

  JobSpec spec;
  spec.name = name;
  spec.kernel = [cfg](SplitMix64&) { return workloads::pi_series(cfg); };
  const std::int64_t steps = cfg.steps;
  spec.bind = [steps](core::Session& s, HostBuffers& bufs, SplitMix64&) {
    auto& out = bufs.f32(1);
    s.sim().bind_f32("out", out);
    s.sim().set_arg("steps", steps);
    s.sim().set_arg("inv_steps", 1.0 / double(steps));
  };
  if (verify) {
    spec.check = [steps](const core::RunResult&, HostBuffers& bufs) {
      const double pi = double(bufs.f32_at(0)[0]) / double(steps);
      const double err = std::fabs(pi - workloads::pi_reference(steps));
      // f32 accumulation: the error grows with the step count (the paper's
      // numerical-instability observation), so the band is generous.
      if (err > 5e-3) {
        fail("pi verification failed: |err| " + std::to_string(err));
      }
    };
  }
  return spec;
}

JobSpec make_simple_job(const std::string& workload, const Combo& c,
                        const std::string& name, bool verify) {
  const std::int64_t n = combo_int(c, "n", 4096);
  const int threads = int(combo_int(c, "threads", 8));

  JobSpec spec;
  spec.name = name;
  if (workload == "vecadd") {
    spec.kernel = [n, threads](SplitMix64&) {
      return workloads::vecadd(n, threads, 4);
    };
    spec.bind = [n](core::Session& s, HostBuffers& bufs, SplitMix64& rng) {
      auto& x = bufs.f32(workloads::random_vector(n, rng.next()));
      auto& y = bufs.f32(workloads::random_vector(n, rng.next()));
      auto& z = bufs.f32(std::size_t(n));
      s.sim().bind_f32("x", x);
      s.sim().bind_f32("y", y);
      s.sim().bind_f32("z", z);
    };
    if (verify) {
      spec.check = [n](const core::RunResult&, HostBuffers& bufs) {
        for (std::int64_t i = 0; i < n; ++i) {
          const float want = bufs.f32_at(0)[std::size_t(i)] +
                             bufs.f32_at(1)[std::size_t(i)];
          if (std::fabs(bufs.f32_at(2)[std::size_t(i)] - want) > 1e-5f) {
            fail("vecadd verification failed at element " + std::to_string(i));
          }
        }
      };
    }
  } else {  // dot
    spec.kernel = [n, threads](SplitMix64&) {
      return workloads::dot(n, threads);
    };
    spec.bind = [n](core::Session& s, HostBuffers& bufs, SplitMix64& rng) {
      auto& x = bufs.f32(workloads::random_vector(n, rng.next()));
      auto& y = bufs.f32(workloads::random_vector(n, rng.next()));
      auto& out = bufs.f32(1);
      s.sim().bind_f32("x", x);
      s.sim().bind_f32("y", y);
      s.sim().bind_f32("out", out);
    };
    if (verify) {
      spec.check = [n](const core::RunResult&, HostBuffers& bufs) {
        double want = 0;
        for (std::int64_t i = 0; i < n; ++i) {
          want += double(bufs.f32_at(0)[std::size_t(i)]) *
                  double(bufs.f32_at(1)[std::size_t(i)]);
        }
        const double got = double(bufs.f32_at(2)[0]);
        if (std::fabs(got - want) > 1e-2 * std::max(1.0, std::fabs(want))) {
          fail("dot verification failed: got " + std::to_string(got) +
               " want " + std::to_string(want));
        }
      };
    }
  }
  return spec;
}

}  // namespace

ManifestRun parse_manifest(const std::string& text) {
  const KeyMap keys = parse_keys(text);

  const std::string workload = scalar(keys, "workload", "");
  if (workload.empty()) fail("manifest: missing required key 'workload'");
  if (workload != "gemm" && workload != "pi" && workload != "vecadd" &&
      workload != "dot") {
    fail(at(keys.at("workload").line) + "key 'workload': unsupported value \"" +
         workload + "\" (known: gemm, pi, vecadd, dot)");
  }

  ManifestRun run;
  run.label = scalar(keys, "label", workload);
  run.out_prefix = scalar(keys, "out", "");
  // Integer values below are in range: parse_keys checked them.
  run.options.workers = int(parse_int("workers", scalar(keys, "workers", "0")));
  run.options.seed =
      std::uint64_t(parse_int("seed", scalar(keys, "seed", "1")));
  run.options.cache_dir = scalar(keys, "cache_dir", "");
  run.options.cache_max_bytes = std::uint64_t(
      parse_int("cache_max_bytes", scalar(keys, "cache_max_bytes", "0")));

  const bool profiling =
      parse_on_off("profiling", scalar(keys, "profiling", "on"));
  const bool approx =
      parse_on_off("approx_trace", scalar(keys, "approx_trace", "off"));
  // Approx mode skips steady-state iterations, so output buffers are not
  // meaningful — functional verification is force-disabled.
  const bool verify =
      parse_on_off("verify", scalar(keys, "verify", "on")) && !approx;
  const std::int64_t start_interval =
      parse_int("thread_start_interval",
                scalar(keys, "thread_start_interval", "-1"));
  const std::int64_t max_cycles =
      parse_int("max_cycles", scalar(keys, "max_cycles", "0"));

  // Sweep axes present in the manifest, in declaration order.
  std::vector<std::string> swept;
  for (const auto& [key, kv] : keys) {
    (void)kv;
    for (const auto& sk : kSweepKeys) {
      if (key == sk) swept.push_back(key);
    }
  }
  std::sort(swept.begin(), swept.end(),
            [&](const std::string& a, const std::string& b) {
              return keys.at(a).order < keys.at(b).order;
            });

  // Cross product, last key fastest (odometer order).
  std::vector<Combo> combos(1);
  for (const auto& key : swept) {
    std::vector<Combo> next;
    for (const auto& base : combos) {
      for (const auto& v : keys.at(key).values) {
        Combo c = base;
        c[key] = v;
        next.push_back(std::move(c));
      }
    }
    combos = std::move(next);
  }

  // Only name-annotate axes that actually sweep (>1 value).
  std::vector<std::string> multi;
  for (const auto& key : swept) {
    if (keys.at(key).values.size() > 1) multi.push_back(key);
  }

  for (const Combo& c : combos) {
    const std::string name = workload + combo_suffix(c, multi);
    JobSpec spec;
    if (workload == "gemm") {
      spec = make_gemm_job(c, name, verify);
    } else if (workload == "pi") {
      spec = make_pi_job(c, name, verify);
    } else {
      spec = make_simple_job(workload, c, name, verify);
    }
    spec.run.enable_profiling = profiling;
    spec.run.sim.fast_forward = approx;
    if (c.count("sampling_period")) {
      spec.run.profiling.sampling_period =
          cycle_t(parse_int("sampling_period", c.at("sampling_period")));
    }
    if (c.count("buffer_lines")) {
      spec.run.profiling.buffer_lines =
          int(parse_int("buffer_lines", c.at("buffer_lines")));
    }
    if (c.count("thread_reordering")) {
      spec.hls.thread_reordering =
          parse_on_off("thread_reordering", c.at("thread_reordering"));
    }
    if (start_interval >= 0) {
      spec.run.sim.host.thread_start_interval = cycle_t(start_interval);
    }
    if (max_cycles > 0) spec.max_cycles = cycle_t(max_cycles);
    run.batch.add(std::move(spec));
  }

  return run;
}

ManifestRun load_manifest(const std::string& path) {
  std::ifstream f(path);
  if (!f.good()) fail("cannot open manifest: " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  ManifestRun run = parse_manifest(ss.str());
  // A relative `out` is relative to the manifest, not to wherever the
  // process happens to run: resolve it so the report and its telemetry
  // sidecar land next to the manifest file.
  if (!run.out_prefix.empty() && run.out_prefix[0] != '/') {
    const std::size_t slash = path.find_last_of('/');
    if (slash != std::string::npos) {
      run.out_prefix = path.substr(0, slash + 1) + run.out_prefix;
    }
  }
  return run;
}

void apply_approx_trace(ManifestRun& run) {
  for (int i = 0; i < int(run.batch.size()); ++i) {
    JobSpec& spec = run.batch.spec_mut(i);
    spec.run.sim.fast_forward = true;
    spec.check = nullptr;  // outputs are not meaningful in approx mode
  }
}

}  // namespace hlsprof::runner
