#include "hls/serialize.hpp"

#include <memory>
#include <utility>
#include <variant>

#include "common/bytes.hpp"
#include "common/error.hpp"

namespace hlsprof::hls {

namespace {

// 4-byte magic at the front of every payload, so a file that is not a
// serialized design at all fails fast with a clear error.
constexpr std::uint32_t kMagic = 0x44534c48;  // "HLSD" little-endian

// Statement tags of the control-tree encoding.
enum : std::uint8_t {
  kStmtOp = 0,
  kStmtLoop = 1,
  kStmtIf = 2,
  kStmtCritical = 3,
  kStmtConcurrent = 4,
  kStmtBarrier = 5,
};

constexpr std::uint8_t kMaxOpcode = std::uint8_t(ir::Opcode::var_write);
constexpr std::uint8_t kMaxScalar = std::uint8_t(ir::Scalar::f64);
constexpr std::uint8_t kMaxMapDir = std::uint8_t(ir::MapDir::alloc);

// ---- encode ----------------------------------------------------------------

void enc_type(ByteWriter& w, const ir::Type& t) {
  w.u8(std::uint8_t(t.scalar)).u16(t.lanes);
}

void enc_area(ByteWriter& w, const Area& a) {
  w.f64(a.alm).f64(a.ff).f64(a.dsp).f64(a.bram_bits);
}

void enc_region(ByteWriter& w, const ir::Region& r) {
  w.u32(std::uint32_t(r.stmts.size()));
  for (const ir::Stmt& s : r.stmts) {
    if (const auto* op = std::get_if<ir::OpStmt>(&s)) {
      w.u8(kStmtOp).i32(op->op);
    } else if (const auto* loop = std::get_if<ir::LoopStmt>(&s)) {
      w.u8(kStmtLoop).str(loop->name).i32(loop->induction);
      w.i32(loop->init).i32(loop->bound).i32(loop->step);
      w.boolean(loop->pipeline).i64(loop->trip_hint).i32(loop->id);
      enc_region(w, *loop->body);
    } else if (const auto* iff = std::get_if<ir::IfStmt>(&s)) {
      w.u8(kStmtIf).i32(iff->cond);
      enc_region(w, *iff->then_body);
      enc_region(w, *iff->else_body);
    } else if (const auto* crit = std::get_if<ir::CriticalStmt>(&s)) {
      w.u8(kStmtCritical).i32(crit->lock_id);
      enc_region(w, *crit->body);
    } else if (const auto* con = std::get_if<ir::ConcurrentStmt>(&s)) {
      w.u8(kStmtConcurrent).boolean(con->user_asserted_independent);
      w.u32(std::uint32_t(con->branches.size()));
      for (const auto& b : con->branches) enc_region(w, *b);
    } else if (const auto* bar = std::get_if<ir::BarrierStmt>(&s)) {
      w.u8(kStmtBarrier).i32(bar->barrier_id);
    } else {
      fail("serialize: unknown statement variant");
    }
  }
}

void enc_kernel(ByteWriter& w, const ir::Kernel& k) {
  w.str(k.name).i32(k.num_threads).i32(k.num_loops).i32(k.num_locks);

  w.u32(std::uint32_t(k.args.size()));
  for (const ir::Arg& a : k.args) {
    w.str(a.name);
    enc_type(w, a.elem_type);
    w.boolean(a.is_pointer).u8(std::uint8_t(a.map)).i64(a.count);
  }

  w.u32(std::uint32_t(k.vars.size()));
  for (const ir::Var& v : k.vars) {
    w.str(v.name);
    enc_type(w, v.type);
  }

  w.u32(std::uint32_t(k.local_arrays.size()));
  for (const ir::LocalArray& a : k.local_arrays) {
    w.str(a.name).u8(std::uint8_t(a.elem)).i64(a.size).i32(a.ports);
  }

  w.u32(std::uint32_t(k.ops.size()));
  for (const ir::Op& op : k.ops) {
    w.u8(std::uint8_t(op.opcode));
    enc_type(w, op.type);
    w.u32(std::uint32_t(op.operands.size()));
    for (ir::ValueId v : op.operands) w.i32(v);
    w.i64(op.i_imm).f64(op.f_imm).i32(op.arg).i32(op.var).i32(op.array);
  }

  enc_region(w, k.body);
}

void enc_options(ByteWriter& w, const HlsOptions& o) {
  const ResourceLibrary& lib = o.lib;
  w.i32(lib.lat_int_alu).i32(lib.lat_int_mul).i32(lib.lat_int_div);
  w.i32(lib.lat_fadd).i32(lib.lat_fmul).i32(lib.lat_fdiv);
  w.i32(lib.lat_cast).i32(lib.lat_local_mem).i32(lib.lat_shuffle);
  w.i32(lib.lat_reduce_per_level).i32(lib.ext_assumed_min);
  enc_area(w, lib.area_int_alu);
  enc_area(w, lib.area_int_mul);
  enc_area(w, lib.area_int_div);
  enc_area(w, lib.area_fadd);
  enc_area(w, lib.area_fmul);
  enc_area(w, lib.area_fdiv);
  enc_area(w, lib.area_cast);
  enc_area(w, lib.area_shuffle);
  enc_area(w, lib.area_mem_port);

  const InfraCosts& infra = o.infra;
  enc_area(w, infra.platform_shell);
  enc_area(w, infra.avalon_master_per_thread);
  enc_area(w, infra.avalon_slave);
  enc_area(w, infra.bus_per_port);
  enc_area(w, infra.controller_per_stage);
  enc_area(w, infra.hts_per_reordering_stage);
  enc_area(w, infra.semaphore);
  enc_area(w, infra.preloader);
  w.f64(infra.ff_per_live_bit).f64(infra.alm_per_live_bit);
  w.f64(infra.context_bram_bits_per_thread_bit);

  const FmaxModel& fmax = o.fmax;
  w.f64(fmax.base_mhz).f64(fmax.alm_penalty_per_log2);
  w.f64(fmax.port_penalty).f64(fmax.floor_mhz);

  w.boolean(o.enable_preloader).boolean(o.thread_reordering);
}

void enc_loop_info(ByteWriter& w, const LoopInfo& l) {
  w.str(l.name).boolean(l.pipelined);
  w.i32(l.ii).i32(l.rec_ii).i32(l.res_ii).i32(l.depth);
  w.i32(l.num_stages).i32(l.num_reordering_stages);
  w.i64(l.int_ops).i64(l.fp_ops).i64(l.ext_loads).i64(l.ext_stores);
  w.i64(l.ext_bytes_read).i64(l.ext_bytes_written).i64(l.local_accesses);
  w.i64(l.live_bits).i64(l.reorder_context_bits);
}

void enc_stats(ByteWriter& w, const DesignStats& s) {
  w.i32(s.num_threads).i32(s.total_stages).i32(s.total_reordering_stages);
  w.i32(s.bus_ports);
  w.i64(s.total_ops).i64(s.fp_op_instances).i64(s.int_op_instances);
  w.i64(s.mem_op_instances);
  w.boolean(s.uses_critical).boolean(s.uses_preloader);
  w.i32(s.num_loops);
}

// ---- decode ----------------------------------------------------------------

/// Element count for a container about to be filled: bounds the count by
/// the bytes left (every element occupies >= 1 byte), so a corrupted
/// count cannot trigger a huge allocation before the truncation check.
std::uint32_t dec_count(ByteReader& r) {
  const std::uint32_t n = r.u32();
  r.require(n);  // >= 1 byte per element still unread
  return n;
}

ir::Type dec_type(ByteReader& r) {
  const std::uint8_t scalar = r.u8();
  HLSPROF_CHECK(scalar <= kMaxScalar, "serialize: scalar type out of range");
  const std::uint16_t lanes = r.u16();
  return ir::Type::make(ir::Scalar(scalar), lanes);  // validates lane range
}

Area dec_area(ByteReader& r) {
  Area a;
  a.alm = r.f64();
  a.ff = r.f64();
  a.dsp = r.f64();
  a.bram_bits = r.f64();
  return a;
}

void dec_region(ByteReader& r, ir::Region& out, int depth) {
  HLSPROF_CHECK(depth < 256, "serialize: control tree too deep");
  const std::uint32_t n = dec_count(r);
  out.stmts.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint8_t tag = r.u8();
    switch (tag) {
      case kStmtOp: {
        ir::OpStmt s;
        s.op = r.i32();
        out.stmts.emplace_back(std::move(s));
        break;
      }
      case kStmtLoop: {
        ir::LoopStmt s;
        s.name = r.str();
        s.induction = r.i32();
        s.init = r.i32();
        s.bound = r.i32();
        s.step = r.i32();
        s.pipeline = r.boolean();
        s.trip_hint = r.i64();
        s.id = r.i32();
        s.body = std::make_unique<ir::Region>();
        dec_region(r, *s.body, depth + 1);
        out.stmts.emplace_back(std::move(s));
        break;
      }
      case kStmtIf: {
        ir::IfStmt s;
        s.cond = r.i32();
        s.then_body = std::make_unique<ir::Region>();
        dec_region(r, *s.then_body, depth + 1);
        s.else_body = std::make_unique<ir::Region>();
        dec_region(r, *s.else_body, depth + 1);
        out.stmts.emplace_back(std::move(s));
        break;
      }
      case kStmtCritical: {
        ir::CriticalStmt s;
        s.lock_id = r.i32();
        s.body = std::make_unique<ir::Region>();
        dec_region(r, *s.body, depth + 1);
        out.stmts.emplace_back(std::move(s));
        break;
      }
      case kStmtConcurrent: {
        ir::ConcurrentStmt s;
        s.user_asserted_independent = r.boolean();
        const std::uint32_t branches = dec_count(r);
        s.branches.reserve(branches);
        for (std::uint32_t b = 0; b < branches; ++b) {
          s.branches.push_back(std::make_unique<ir::Region>());
          dec_region(r, *s.branches.back(), depth + 1);
        }
        out.stmts.emplace_back(std::move(s));
        break;
      }
      case kStmtBarrier: {
        ir::BarrierStmt s;
        s.barrier_id = r.i32();
        out.stmts.emplace_back(std::move(s));
        break;
      }
      default:
        fail("serialize: unknown statement tag " + std::to_string(tag));
    }
  }
}

ir::Kernel dec_kernel(ByteReader& r) {
  ir::Kernel k;
  k.name = r.str();
  k.num_threads = r.i32();
  HLSPROF_CHECK(k.num_threads >= 1 && k.num_threads <= 64,
                "serialize: num_threads " + std::to_string(k.num_threads) +
                    " out of supported range [1,64]");
  k.num_loops = r.i32();
  k.num_locks = r.i32();

  const std::uint32_t nargs = dec_count(r);
  k.args.reserve(nargs);
  for (std::uint32_t i = 0; i < nargs; ++i) {
    ir::Arg a;
    a.name = r.str();
    a.elem_type = dec_type(r);
    a.is_pointer = r.boolean();
    const std::uint8_t map = r.u8();
    HLSPROF_CHECK(map <= kMaxMapDir, "serialize: map direction out of range");
    a.map = ir::MapDir(map);
    a.count = r.i64();
    k.args.push_back(std::move(a));
  }

  const std::uint32_t nvars = dec_count(r);
  k.vars.reserve(nvars);
  for (std::uint32_t i = 0; i < nvars; ++i) {
    ir::Var v;
    v.name = r.str();
    v.type = dec_type(r);
    k.vars.push_back(std::move(v));
  }

  const std::uint32_t nlocal = dec_count(r);
  k.local_arrays.reserve(nlocal);
  for (std::uint32_t i = 0; i < nlocal; ++i) {
    ir::LocalArray a;
    a.name = r.str();
    const std::uint8_t elem = r.u8();
    HLSPROF_CHECK(elem <= kMaxScalar, "serialize: scalar type out of range");
    a.elem = ir::Scalar(elem);
    a.size = r.i64();
    a.ports = r.i32();
    k.local_arrays.push_back(std::move(a));
  }

  const std::uint32_t nops = dec_count(r);
  k.ops.reserve(nops);
  for (std::uint32_t i = 0; i < nops; ++i) {
    ir::Op op;
    const std::uint8_t opcode = r.u8();
    HLSPROF_CHECK(opcode <= kMaxOpcode, "serialize: opcode out of range");
    op.opcode = ir::Opcode(opcode);
    op.type = dec_type(r);
    const std::uint32_t noperands = dec_count(r);
    op.operands.reserve(noperands);
    for (std::uint32_t j = 0; j < noperands; ++j) op.operands.push_back(r.i32());
    op.i_imm = r.i64();
    op.f_imm = r.f64();
    op.arg = r.i32();
    op.var = r.i32();
    op.array = r.i32();
    k.ops.push_back(std::move(op));
  }

  dec_region(r, k.body, 0);
  return k;
}

HlsOptions dec_options(ByteReader& r) {
  HlsOptions o;
  ResourceLibrary& lib = o.lib;
  lib.lat_int_alu = r.i32();
  lib.lat_int_mul = r.i32();
  lib.lat_int_div = r.i32();
  lib.lat_fadd = r.i32();
  lib.lat_fmul = r.i32();
  lib.lat_fdiv = r.i32();
  lib.lat_cast = r.i32();
  lib.lat_local_mem = r.i32();
  lib.lat_shuffle = r.i32();
  lib.lat_reduce_per_level = r.i32();
  lib.ext_assumed_min = r.i32();
  lib.area_int_alu = dec_area(r);
  lib.area_int_mul = dec_area(r);
  lib.area_int_div = dec_area(r);
  lib.area_fadd = dec_area(r);
  lib.area_fmul = dec_area(r);
  lib.area_fdiv = dec_area(r);
  lib.area_cast = dec_area(r);
  lib.area_shuffle = dec_area(r);
  lib.area_mem_port = dec_area(r);

  InfraCosts& infra = o.infra;
  infra.platform_shell = dec_area(r);
  infra.avalon_master_per_thread = dec_area(r);
  infra.avalon_slave = dec_area(r);
  infra.bus_per_port = dec_area(r);
  infra.controller_per_stage = dec_area(r);
  infra.hts_per_reordering_stage = dec_area(r);
  infra.semaphore = dec_area(r);
  infra.preloader = dec_area(r);
  infra.ff_per_live_bit = r.f64();
  infra.alm_per_live_bit = r.f64();
  infra.context_bram_bits_per_thread_bit = r.f64();

  FmaxModel& fmax = o.fmax;
  fmax.base_mhz = r.f64();
  fmax.alm_penalty_per_log2 = r.f64();
  fmax.port_penalty = r.f64();
  fmax.floor_mhz = r.f64();

  o.enable_preloader = r.boolean();
  o.thread_reordering = r.boolean();
  return o;
}

LoopInfo dec_loop_info(ByteReader& r) {
  LoopInfo l;
  l.name = r.str();
  l.pipelined = r.boolean();
  l.ii = r.i32();
  l.rec_ii = r.i32();
  l.res_ii = r.i32();
  l.depth = r.i32();
  l.num_stages = r.i32();
  l.num_reordering_stages = r.i32();
  l.int_ops = r.i64();
  l.fp_ops = r.i64();
  l.ext_loads = r.i64();
  l.ext_stores = r.i64();
  l.ext_bytes_read = r.i64();
  l.ext_bytes_written = r.i64();
  l.local_accesses = r.i64();
  l.live_bits = r.i64();
  l.reorder_context_bits = r.i64();
  return l;
}

DesignStats dec_stats(ByteReader& r) {
  DesignStats s;
  s.num_threads = r.i32();
  s.total_stages = r.i32();
  s.total_reordering_stages = r.i32();
  s.bus_ports = r.i32();
  s.total_ops = r.i64();
  s.fp_op_instances = r.i64();
  s.int_op_instances = r.i64();
  s.mem_op_instances = r.i64();
  s.uses_critical = r.boolean();
  s.uses_preloader = r.boolean();
  s.num_loops = r.i32();
  return s;
}

}  // namespace

std::string encode_source(const ir::Kernel& kernel,
                          const HlsOptions& options) {
  ByteWriter w;
  enc_kernel(w, kernel);
  enc_options(w, options);
  return w.take();
}

std::string serialize_design(const Design& d) {
  ByteWriter w;
  w.u32(kMagic).u32(kDesignFormatVersion);
  enc_kernel(w, d.kernel);
  enc_options(w, d.options);

  w.u32(std::uint32_t(d.op_latency.size()));
  for (int v : d.op_latency) w.i32(v);
  w.u32(std::uint32_t(d.op_start.size()));
  for (int v : d.op_start) w.i32(v);

  w.u32(std::uint32_t(d.loops.size()));
  for (const LoopInfo& l : d.loops) enc_loop_info(w, l);

  enc_stats(w, d.stats);
  enc_area(w, d.area);
  w.f64(d.fmax_mhz);
  return w.take();
}

Design deserialize_design(std::string_view bytes) {
  ByteReader r(bytes);
  HLSPROF_CHECK(r.u32() == kMagic, "serialize: bad magic");
  const std::uint32_t version = r.u32();
  HLSPROF_CHECK(version == kDesignFormatVersion,
                "serialize: format version mismatch (got " +
                    std::to_string(version) + ", want " +
                    std::to_string(kDesignFormatVersion) + ")");

  Design d;
  d.kernel = dec_kernel(r);
  d.options = dec_options(r);

  const std::uint32_t nlat = dec_count(r);
  d.op_latency.reserve(nlat);
  for (std::uint32_t i = 0; i < nlat; ++i) d.op_latency.push_back(r.i32());
  const std::uint32_t nstart = dec_count(r);
  d.op_start.reserve(nstart);
  for (std::uint32_t i = 0; i < nstart; ++i) d.op_start.push_back(r.i32());

  const std::uint32_t nloops = dec_count(r);
  d.loops.reserve(nloops);
  for (std::uint32_t i = 0; i < nloops; ++i) {
    d.loops.push_back(dec_loop_info(r));
  }

  d.stats = dec_stats(r);
  d.area = dec_area(r);
  d.fmax_mhz = r.f64();
  HLSPROF_CHECK(r.done(), "serialize: trailing bytes after design");
  return d;
}

}  // namespace hlsprof::hls
