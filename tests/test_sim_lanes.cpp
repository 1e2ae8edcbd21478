// Every lane micro-op pinned bit for bit against tests/golden/sim_lanes.txt.
// One hand-built kernel per element type (f32, f64, i32, i64) and lane
// count (2, 3, 4, 7, 16) runs the vector forms of the FP and integer
// arithmetic, negation, the four casts, both reductions, select, insert
// and extract, a vector register copy and vector local-array stores and
// loads. Every result is widened to f64 or i64 before it is stored, so
// the golden holds the exact 64-bit word the simulator computed: an f32
// result whose round trip through float were skipped, or a lane written
// to its neighbour, changes a hex digit. The inputs are inexact in f32
// (different exponents, long mantissas), mix magnitudes where summation
// order matters, and wrap in i32.
//
// A functional run records each result as one line of per-lane hex; a
// timing-only run (FP lanes are counted, not computed) records cycles,
// the op counts and a hash of the output buffers.
//
// After an intended change, the test writes what it computed to
// sim_lanes.actual.txt in its working directory (build/tests); copy that
// over tests/golden/sim_lanes.txt and explain the diff in CHANGES.md.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/strings.hpp"
#include "hls/compiler.hpp"
#include "ir/builder.hpp"
#include "sim/simulator.hpp"

namespace hlsprof {
namespace {

using ir::KernelBuilder;
using ir::MapDir;
using ir::Scalar;
using ir::Type;
using ir::Val;

constexpr std::int64_t kOutWords = 64 * ir::kMaxLanes;

/// A stored result: `lanes` words of `fo` (f64) or `io` (i64) at `at`.
struct Result {
  std::string name;
  bool is_float = false;
  int lanes = 1;
  std::int64_t at = 0;
};

class LaneKernel {
 public:
  LaneKernel(Scalar s, int lanes)
      : s_(s), lanes_(lanes), kb_("lanes", 1),
        a_(kb_.ptr_arg("A", Type::make(s, 1), MapDir::to, lanes)),
        b_(kb_.ptr_arg("B", Type::make(s, 1), MapDir::to, lanes)),
        c_(kb_.ptr_arg("C", Type::make(s, 1), MapDir::to, lanes)),
        fo_(kb_.ptr_arg("fo", Type::f64(), MapDir::tofrom, kOutWords)),
        io_(kb_.ptr_arg("io", Type::i64(), MapDir::tofrom, kOutWords)) {}

  ir::Kernel build() {
    KernelBuilder& kb = kb_;
    const int L = lanes_;
    const Val zero = kb.c32(0);
    const Val a = kb.load(a_, zero, L);
    const Val b = kb.load(b_, zero, L);
    const Val c = kb.load(c_, zero, L);
    const bool fp = Type::make(s_, 1).is_float();
    const bool f32 = s_ == Scalar::f32;
    const bool i32 = s_ == Scalar::i32;
    if (fp) {
      put("fadd", a + b);
      put("fsub", a - b);
      put("fmul", a * b);
      put("fdiv", a / b);
      put("fneg", kb.neg(a));
      put("fchain", (a * b + c) / a - b);
      put("fscale", a * (f32 ? kb.cf32(3.1) : kb.cf64(3.1)));
      put("cast_ff", kb.cast(c / b, Type::make(f32 ? Scalar::f64
                                                   : Scalar::f32, L)));
      const Val big = c * (f32 ? kb.cf32(0.37) : kb.cf64(0.37));
      put("cast_fi32", kb.cast(big, Type::i32(L)));
      put("cast_fi64", kb.cast(big, Type::i64(L)));
    } else {
      put("add", a + b);
      put("sub", a - b);
      put("mul", a * b);
      put("div", a / b);
      put("rem", a % b);
      put("and", kb.band(a, b));
      put("or", kb.bor(a, b));
      put("xor", kb.bxor(a, b));
      put("shl", kb.shl(a, c));
      put("ashr", kb.ashr(b, c));
      put("neg", kb.neg(b));
      put("scale", a * (i32 ? kb.c32(77) : kb.c64(77)));
      put("cast_ii", kb.cast(a * b, Type::make(i32 ? Scalar::i64
                                                   : Scalar::i32, L)));
      put("cast_if32", kb.cast(a * b, Type::f32(L)));
      put("cast_if64", kb.cast(a * b, Type::f64(L)));
    }
    put("reduce_a", kb.reduce_add(a));
    put("reduce_c", kb.reduce_add(fp ? c : a * b));
    const Val tid = kb.thread_id();
    put("select_t", kb.select(kb.eq(tid, zero), a, b));
    put("select_f", kb.select(kb.ne(tid, zero), a, b));
    put("extract", kb.extract(b, L - 1));
    put("insert", kb.insert(a, kb.extract(b, L - 1), L / 2));
    ir::VarHandle acc = kb.var_init("acc", a);
    acc.set(acc.get() + c);
    put("copy", acc.get());
    // Two stores, then a load straddling them at an odd offset.
    ir::LocalHandle loc = kb.local_array("loc", s_, 2 * L + 1);
    kb.store_local(loc, zero, b);
    kb.store_local(loc, kb.c32(L), fp ? a * b : a);
    put("local", kb.load_local(loc, kb.c32(1), L));
    put("local_tail", kb.load_local(loc, kb.c32(L + 1), L));
    return std::move(kb_).finish();
  }

  const std::vector<Result>& results() const { return results_; }

 private:
  /// Widens `v` to 64 bits (f32 -> f64, i32 -> i64) and stores it.
  void put(const std::string& name, Val v) {
    const Type t = v.type();
    Result r;
    r.name = name;
    r.is_float = t.is_float();
    r.lanes = t.lanes;
    std::int64_t& next = r.is_float ? f_next_ : i_next_;
    r.at = next;
    next += t.lanes;
    const Type wide = Type::make(r.is_float ? Scalar::f64 : Scalar::i64,
                                 t.lanes);
    kb_.store(r.is_float ? fo_ : io_, kb_.c32(r.at), kb_.cast(v, wide));
    results_.push_back(r);
  }

  Scalar s_;
  int lanes_;
  KernelBuilder kb_;
  ir::PtrHandle a_, b_, c_, fo_, io_;
  std::vector<Result> results_;
  std::int64_t f_next_ = 0, i_next_ = 0;
};

/// Lane inputs. A and B: long mantissas at different exponents, mixed
/// signs, B never zero. C: magnitudes that cancel in a reduction (f) or
/// shift counts (i).
std::vector<double> float_input(int which, int lanes, bool f32) {
  std::vector<double> v;
  for (int l = 0; l < lanes; ++l) {
    double x = 0.0;
    const double sign = (l % 3 == 1) ? -1.0 : 1.0;
    switch (which) {
      case 0: x = sign * (1.0 + (l + 1) / 7.0) * double(1 << (l % 5)); break;
      case 1: x = (l % 2 ? -1.0 : 1.0) * (l + 1) * 1.1e-4 / 3.0; break;
      default: {
        const double big = f32 ? 3.0e7 : 3.0e17;
        x = (l % 3 == 0 ? big : l % 3 == 1 ? 1.25 : -big) * (1.0 + l / 64.0);
      }
    }
    v.push_back(f32 ? double(float(x)) : x);
  }
  return v;
}

std::vector<std::int64_t> int_input(int which, int lanes, bool i32) {
  std::vector<std::int64_t> v;
  for (int l = 0; l < lanes; ++l) {
    std::int64_t x = 0;
    switch (which) {
      case 0:
        x = i32 ? 0x12345678 + std::int64_t(l) * 0x0765ABCD % 0x6D000000
                : 0x0123456789LL * (l + 1) + 0x5A5A5LL * l;
        break;
      case 1:
        x = (l % 2 ? -1 : 1) * (std::int64_t(l) * 7919 + 3) *
            (i32 ? 3 : 31);
        break;
      default: x = (std::int64_t(l) * 5 + 3) % (i32 ? 32 : 22); break;
    }
    v.push_back(x);
  }
  return v;
}

std::string hex_words(const void* data, int words) {
  std::string s;
  const auto* p = static_cast<const unsigned char*>(data);
  for (int i = 0; i < words; ++i) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + std::size_t(i) * 8, 8);
    s += strf(" %016llx", (unsigned long long)w);
  }
  return s;
}

const char* scalar_name(Scalar s) {
  switch (s) {
    case Scalar::i32: return "i32";
    case Scalar::i64: return "i64";
    case Scalar::f32: return "f32";
    case Scalar::f64: return "f64";
  }
  return "?";
}

void run_lanes(Scalar s, int lanes, bool functional,
               std::vector<std::string>& got) {
  LaneKernel lk(s, lanes);
  const hls::Design d = hls::compile(lk.build());
  sim::SimParams p;
  p.host.thread_start_interval = 50;
  p.functional = functional;
  sim::Simulator sim(d, p, std::size_t{1} << 20);

  std::vector<float> f32s[3];
  std::vector<double> f64s[3];
  std::vector<std::int32_t> i32s[3];
  std::vector<std::int64_t> i64s[3];
  const char* names[3] = {"A", "B", "C"};
  for (int k = 0; k < 3; ++k) {
    switch (s) {
      case Scalar::f32:
        for (double x : float_input(k, lanes, true)) {
          f32s[k].push_back(float(x));
        }
        sim.bind_f32(names[k], f32s[k]);
        break;
      case Scalar::f64:
        f64s[k] = float_input(k, lanes, false);
        sim.bind_f64(names[k], f64s[k]);
        break;
      case Scalar::i32:
        for (std::int64_t x : int_input(k, lanes, true)) {
          i32s[k].push_back(std::int32_t(x));
        }
        sim.bind_i32(names[k], i32s[k]);
        break;
      case Scalar::i64:
        i64s[k] = int_input(k, lanes, false);
        sim.bind_i64(names[k], i64s[k]);
        break;
    }
  }
  // A recognisable fill: lanes nothing stored to read back as 5a..5a.
  std::vector<double> fo(static_cast<std::size_t>(kOutWords));
  std::vector<std::int64_t> io(std::size_t(kOutWords), 0x5A5A5A5A5A5A5A5ALL);
  std::memcpy(fo.data(), io.data(), fo.size() * sizeof(double));
  sim.bind_f64("fo", fo);
  sim.bind_i64("io", io);
  const sim::SimResult res = sim.run();
  ASSERT_EQ(res.threads.size(), 1u);

  const std::string tag =
      strf("%sx%d %s", scalar_name(s), lanes,
           functional ? "functional" : "timing");
  const sim::ThreadStats& t = res.threads[0];
  std::string head = strf("%s cycles=%llu int=%lld fp=%lld", tag.c_str(),
                          (unsigned long long)res.total_cycles, t.int_ops,
                          t.fp_ops);
  if (!functional) {
    Fnv1a64 h;
    h.bytes(fo.data(), fo.size() * sizeof(double));
    h.bytes(io.data(), io.size() * sizeof(std::int64_t));
    head += " out=" + hex_digest(h.digest());
  }
  got.push_back(head);
  if (!functional) return;
  for (const Result& r : lk.results()) {
    const void* src = r.is_float
                          ? static_cast<const void*>(fo.data() + r.at)
                          : static_cast<const void*>(io.data() + r.at);
    got.push_back(tag + " " + r.name + hex_words(src, r.lanes));
  }
}

TEST(SimLanes, EveryLaneOpMatchesGolden) {
  std::vector<std::string> got;
  for (Scalar s : {Scalar::f32, Scalar::f64, Scalar::i32, Scalar::i64}) {
    for (int lanes : {2, 3, 4, 7, 16}) {
      for (bool functional : {true, false}) {
        run_lanes(s, lanes, functional, got);
      }
    }
  }

  std::ifstream f(HLSPROF_GOLDEN_DIR "/sim_lanes.txt");
  std::vector<std::string> want;
  for (std::string l; std::getline(f, l);) want.push_back(l);
  bool same = want.size() == got.size();
  for (std::size_t i = 0; i < got.size(); ++i) {
    const std::string w = i < want.size() ? want[i] : "(missing)";
    EXPECT_EQ(got[i], w) << "lanes line " << i + 1;
    same = same && got[i] == w;
  }
  EXPECT_EQ(got.size(), want.size()) << "lanes line count";
  if (!same) {
    std::ofstream actual("sim_lanes.actual.txt");
    for (const std::string& l : got) actual << l << '\n';
  }
}

}  // namespace
}  // namespace hlsprof
