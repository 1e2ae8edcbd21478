// Tests for the versioned Design serializer (src/hls/serialize): exact
// round trips across every workload family, byte-stable re-encoding,
// run-identical deserialized designs (same cycles, same output buffers,
// byte-identical Paraver), and clean Error throws — never crashes — on
// truncated or garbage input. Plus the bounds-checked byte reader
// underneath it (src/common/bytes).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"
#include "core/hlsprof.hpp"
#include "hls/serialize.hpp"
#include "paraver/writer.hpp"
#include "runner/design_cache.hpp"
#include "workloads/gemm.hpp"
#include "workloads/pi.hpp"
#include "workloads/reference.hpp"
#include "workloads/simple.hpp"

namespace hlsprof {
namespace {

std::vector<std::pair<std::string, ir::Kernel>> sample_kernels() {
  std::vector<std::pair<std::string, ir::Kernel>> out;
  workloads::GemmConfig g;
  g.dim = 8;
  g.threads = 2;
  out.emplace_back("gemm_naive", workloads::gemm_naive(g));
  out.emplace_back("gemm_no_critical", workloads::gemm_no_critical(g));
  out.emplace_back("gemm_vectorized", workloads::gemm_vectorized(g));
  out.emplace_back("gemm_blocked", workloads::gemm_blocked(g));
  out.emplace_back("gemm_double_buffered", workloads::gemm_double_buffered(g));
  out.emplace_back("gemm_preloaded", workloads::gemm_preloaded(g));
  workloads::PiConfig p;
  p.steps = 256;
  p.threads = 4;
  out.emplace_back("pi", workloads::pi_series(p));
  out.emplace_back("vecadd", workloads::vecadd(64, 4, 4));
  out.emplace_back("dot", workloads::dot(64, 4));
  out.emplace_back("stencil3", workloads::stencil3(64, 4));
  out.emplace_back("barrier", workloads::barrier_phases(32, 4));
  return out;
}

// ---- byte reader/writer ----------------------------------------------------

TEST(Bytes, RoundTripsEveryWidth) {
  ByteWriter w;
  w.u8(0xab).u16(0xbeef).u32(0xdeadbeef).u64(0x0123456789abcdefULL);
  w.i32(-7).i64(-1234567890123LL).boolean(true).f64(-0.125);
  w.str("hello");
  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i32(), -7);
  EXPECT_EQ(r.i64(), -1234567890123LL);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.f64(), -0.125);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.done());
}

TEST(Bytes, EncodingIsLittleEndianAndFixedWidth) {
  ByteWriter w;
  w.u32(0x01020304);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(std::uint8_t(w.data()[0]), 0x04);
  EXPECT_EQ(std::uint8_t(w.data()[3]), 0x01);
}

TEST(Bytes, ReadsPastTheEndThrow) {
  ByteWriter w;
  w.u16(7);
  ByteReader r(w.data());
  EXPECT_EQ(r.u16(), 7);
  EXPECT_THROW(r.u8(), Error);
  ByteReader r2(w.data());
  EXPECT_THROW(r2.u32(), Error);

  // A length prefix larger than the remaining bytes must throw, not
  // allocate or read out of bounds.
  ByteWriter w3;
  w3.u32(1000);  // claims a 1000-byte string in an empty buffer
  ByteReader r3(w3.data());
  EXPECT_THROW(r3.str(), Error);
}

TEST(Bytes, EncodeSourceBytesArePinned) {
  // The design cache keys on these bytes and the disk store writes them:
  // a change to ByteWriter that moved a byte would change every
  // design_key in reports and orphan every stored entry.
  const std::string src =
      hls::encode_source(workloads::pi_series(workloads::PiConfig{}),
                         hls::HlsOptions{});
  EXPECT_EQ(src.size(), 4967u);
  EXPECT_EQ(hex_digest(fnv1a64(src)), "c771b27cd0837dc3");
  EXPECT_EQ(runner::DesignCache::key_of(
                workloads::pi_series(workloads::PiConfig{}),
                hls::HlsOptions{}),
            0xc771b27cd0837dc3ULL);
}

// ---- design round trips ----------------------------------------------------

TEST(Serialize, RoundTripPreservesKernelPrintAndCacheKey) {
  const hls::HlsOptions opts;
  for (auto& [name, kernel] : sample_kernels()) {
    const std::string source = hls::encode_source(kernel, opts);
    const std::uint64_t key = runner::DesignCache::key_of(kernel, opts);

    hls::Design design = hls::compile(std::move(kernel), opts);
    const std::string bytes = hls::serialize_design(design);
    const hls::Design back = hls::deserialize_design(bytes);

    EXPECT_EQ(hls::encode_source(back.kernel, back.options), source) << name;
    EXPECT_EQ(runner::DesignCache::key_of(back.kernel, back.options), key)
        << name;
    // Canonical encoding: re-serializing the decoded design is
    // byte-identical (the disk cache relies on this for stable entries).
    EXPECT_EQ(hls::serialize_design(back), bytes) << name;
  }
}

TEST(Serialize, RoundTripPreservesScheduleAndReports) {
  workloads::GemmConfig cfg;
  cfg.dim = 16;
  cfg.threads = 4;
  const hls::Design d = hls::compile(workloads::gemm_double_buffered(cfg));
  const hls::Design b = hls::deserialize_design(hls::serialize_design(d));

  EXPECT_EQ(b.op_latency, d.op_latency);
  EXPECT_EQ(b.op_start, d.op_start);
  ASSERT_EQ(b.loops.size(), d.loops.size());
  for (std::size_t i = 0; i < d.loops.size(); ++i) {
    EXPECT_EQ(b.loops[i].name, d.loops[i].name) << i;
    EXPECT_EQ(b.loops[i].pipelined, d.loops[i].pipelined) << i;
    EXPECT_EQ(b.loops[i].ii, d.loops[i].ii) << i;
    EXPECT_EQ(b.loops[i].depth, d.loops[i].depth) << i;
    EXPECT_EQ(b.loops[i].fp_ops, d.loops[i].fp_ops) << i;
    EXPECT_EQ(b.loops[i].ext_bytes_read, d.loops[i].ext_bytes_read) << i;
    EXPECT_EQ(b.loops[i].live_bits, d.loops[i].live_bits) << i;
    EXPECT_EQ(b.loops[i].reorder_context_bits,
              d.loops[i].reorder_context_bits)
        << i;
  }
  EXPECT_EQ(b.stats.num_threads, d.stats.num_threads);
  EXPECT_EQ(b.stats.total_stages, d.stats.total_stages);
  EXPECT_EQ(b.stats.total_reordering_stages, d.stats.total_reordering_stages);
  EXPECT_EQ(b.stats.bus_ports, d.stats.bus_ports);
  EXPECT_EQ(b.stats.total_ops, d.stats.total_ops);
  EXPECT_EQ(b.stats.uses_critical, d.stats.uses_critical);
  EXPECT_EQ(b.stats.uses_preloader, d.stats.uses_preloader);
  EXPECT_EQ(b.area.alm, d.area.alm);
  EXPECT_EQ(b.area.bram_bits, d.area.bram_bits);
  EXPECT_EQ(b.fmax_mhz, d.fmax_mhz);
  EXPECT_EQ(b.options.lib.lat_fadd, d.options.lib.lat_fadd);
  EXPECT_EQ(b.options.enable_preloader, d.options.enable_preloader);
  EXPECT_EQ(b.options.thread_reordering, d.options.thread_reordering);
}

TEST(Serialize, DeserializedDesignRunsIdenticallyIncludingParaver) {
  workloads::GemmConfig cfg;
  cfg.dim = 12;
  cfg.threads = 2;
  const auto a = workloads::random_matrix(cfg.dim, 11);
  const auto b = workloads::random_matrix(cfg.dim, 22);

  auto run = [&](hls::Design design) {
    core::Session s(std::move(design));
    auto av = a;
    auto bv = b;
    std::vector<float> c(std::size_t(cfg.dim) * std::size_t(cfg.dim));
    s.sim().bind_f32("A", av);
    s.sim().bind_f32("B", bv);
    s.sim().bind_f32("C", c);
    core::RunResult r = s.run();
    return std::make_tuple(r.sim.total_cycles, r.sim.kernel_cycles,
                           r.sim.total_stall_cycles(), c,
                           paraver::to_paraver(r.timeline, "gemm"));
  };

  hls::Design fresh = hls::compile(workloads::gemm_vectorized(cfg));
  const std::string bytes = hls::serialize_design(fresh);
  const auto [cyc1, kc1, st1, out1, prv1] = run(std::move(fresh));
  const auto [cyc2, kc2, st2, out2, prv2] =
      run(hls::deserialize_design(bytes));

  EXPECT_EQ(cyc1, cyc2);
  EXPECT_EQ(kc1, kc2);
  EXPECT_EQ(st1, st2);
  EXPECT_EQ(out1, out2);
  // Byte-identical Paraver output — a warm-started run is
  // indistinguishable from a fresh compile all the way to the viewer.
  EXPECT_EQ(prv1.prv, prv2.prv);
  EXPECT_EQ(prv1.pcf, prv2.pcf);
  EXPECT_EQ(prv1.row, prv2.row);
}

// ---- malformed input -------------------------------------------------------

TEST(Serialize, EveryTruncationThrowsCleanly) {
  workloads::GemmConfig cfg;
  cfg.dim = 8;
  cfg.threads = 2;
  const std::string bytes =
      hls::serialize_design(hls::compile(workloads::gemm_naive(cfg)));
  ASSERT_GT(bytes.size(), 64u);
  // Every proper prefix is missing bytes the decoder needs (the full
  // buffer ends exactly at the last field), so each must throw Error.
  for (std::size_t len = 0; len < bytes.size();
       len += (len < 64 ? 1 : 13)) {
    EXPECT_THROW(hls::deserialize_design(std::string_view(bytes).substr(0, len)),
                 Error)
        << "prefix length " << len;
  }
}

TEST(Serialize, ThreadCountOutsideOneTo64Throws) {
  // A disk-store entry is untrusted: the simulator packs thread ids into
  // 6 bits, so a count outside [1,64] must not decode.
  workloads::GemmConfig cfg;
  cfg.dim = 8;
  const hls::Design design = hls::compile(workloads::gemm_naive(cfg));
  const std::string good = hls::serialize_design(design);
  // magic u32, version u32, kernel name (u32 length + bytes), num_threads.
  const std::size_t at = 12 + design.kernel.name.size();
  ASSERT_EQ(ByteReader(good.substr(at, 4)).i32(), design.kernel.num_threads);
  for (const std::int32_t t : {0, 65, INT32_MAX}) {
    ByteWriter w;
    w.i32(t);
    std::string bad = good;
    bad.replace(at, 4, w.data());
    try {
      hls::deserialize_design(bad);
      ADD_FAILURE() << "no error for num_threads " << t;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("num_threads"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Serialize, BadMagicVersionAndGarbageThrow) {
  workloads::GemmConfig cfg;
  cfg.dim = 8;
  const std::string good =
      hls::serialize_design(hls::compile(workloads::gemm_naive(cfg)));

  std::string bad_magic = good;
  bad_magic[0] ^= 0xff;
  EXPECT_THROW(hls::deserialize_design(bad_magic), Error);

  std::string bad_version = good;
  bad_version[4] ^= 0xff;  // format version u32 follows the magic
  EXPECT_THROW(hls::deserialize_design(bad_version), Error);

  EXPECT_THROW(hls::deserialize_design(""), Error);
  EXPECT_THROW(hls::deserialize_design("not a design at all"), Error);

  std::string trailing = good;
  trailing += "x";
  EXPECT_THROW(hls::deserialize_design(trailing), Error);
}

}  // namespace
}  // namespace hlsprof
