// The simulator oracle: one line of recorded results per case, checked
// against tests/golden/sim_oracle.txt. A line holds the total and kernel
// cycles; per thread the start, end, stall, int ops, fp ops, loads and
// stores; DRAM reads and writes; the bits of row_hit_rate; an FNV hash of
// the output buffers; and an FNV hash of the .prv, .pcf and .row text.
// Exact-tier cases run on both event loops and both must produce the
// golden line; approx-tier cases run on the fast loop.
//
// After an intended model change, the test writes what it computed to
// sim_oracle.actual.txt in its working directory (build/tests); copy that
// over tests/golden/sim_oracle.txt and explain the diff in CHANGES.md.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/strings.hpp"
#include "core/hlsprof.hpp"
#include "paraver/writer.hpp"
#include "sim_cases.hpp"

namespace hlsprof {
namespace {

std::string oracle_line(const std::string& name, const SimCase& c,
                        const std::shared_ptr<const hls::Design>& design,
                        bool reference, bool approx) {
  core::RunOptions opts;
  opts.sim = c.params;
  opts.sim.reference_event_loop = reference;
  opts.sim.fast_forward = approx;
  core::Session s(design, opts);
  HostBufs bufs;
  c.bind(s.sim(), bufs);
  const core::RunResult r = s.run();
  const sim::SimResult& res = r.sim;

  std::string line = strf("%s total=%llu kernel=%llu", name.c_str(),
                          (unsigned long long)res.total_cycles,
                          (unsigned long long)res.kernel_cycles);
  for (const sim::ThreadStats& t : res.threads) {
    line += strf(" [%llu,%llu,%llu,%lld,%lld,%lld,%lld]",
                 (unsigned long long)t.start, (unsigned long long)t.end,
                 (unsigned long long)t.stall_cycles, t.int_ops, t.fp_ops,
                 t.ext_loads, t.ext_stores);
  }
  std::uint64_t hit_bits = 0;
  std::memcpy(&hit_bits, &res.row_hit_rate, sizeof hit_bits);
  Fnv1a64 out;
  for (const std::vector<float>& b : bufs.outputs()) {
    out.bytes(b.data(), b.size() * sizeof(float));
  }
  const paraver::ParaverFiles files =
      paraver::to_paraver(r.timeline, design->kernel.name);
  Fnv1a64 prv;
  prv.str(files.prv).str(files.pcf).str(files.row);
  line += strf(" dram=%lld/%lld hit=%s out=%s prv=%s", res.dram_reads,
               res.dram_writes, hex_digest(hit_bits).c_str(),
               hex_digest(out.digest()).c_str(),
               hex_digest(prv.digest()).c_str());
  return line;
}

/// Appends the case's line: the fast and reference loops must agree on
/// the exact tier; with `approx` the approx tier's line follows.
void run_case(const SimCase& c, bool approx, std::vector<std::string>& got) {
  auto design = core::compile_shared(c.kernel());
  const std::string fast = oracle_line(c.name, c, design, false, false);
  EXPECT_EQ(oracle_line(c.name, c, design, true, false), fast)
      << "reference and fast event loops disagree on " << c.name;
  got.push_back(fast);
  if (approx) {
    got.push_back(oracle_line(c.name + "_approx", c, design, false, true));
  }
}

TEST(SimOracle, EveryCaseMatchesGolden) {
  std::vector<std::string> got;
  for (const SimCase& c : example_cases()) run_case(c, false, got);
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    run_case(random_case(seed), false, got);
  }
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    run_case(random_params_case(seed), false, got);
  }
  for (std::size_t v = 0; v < 5; ++v) {
    for (int threads : {1, 4, 8}) {
      run_case(gemm_case(v, 32, threads), true, got);
    }
  }

  std::ifstream f(HLSPROF_GOLDEN_DIR "/sim_oracle.txt");
  std::vector<std::string> want;
  for (std::string l; std::getline(f, l);) want.push_back(l);
  bool same = want.size() == got.size();
  for (std::size_t i = 0; i < got.size(); ++i) {
    const std::string w = i < want.size() ? want[i] : "(missing)";
    EXPECT_EQ(got[i], w) << "oracle line " << i + 1;
    same = same && got[i] == w;
  }
  EXPECT_EQ(got.size(), want.size()) << "oracle case count";
  if (!same) {
    std::ofstream actual("sim_oracle.actual.txt");
    for (const std::string& l : got) actual << l << '\n';
  }
}

}  // namespace
}  // namespace hlsprof
