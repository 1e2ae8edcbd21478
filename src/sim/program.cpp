#include "sim/program.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace hlsprof::sim {

using ir::Opcode;

Program::Program(const hls::Design& design, const SimParams& params)
    : d_(design), functional_(params.functional) {
  const ir::Kernel& k = d_.kernel;
  value_slot_.assign(k.ops.size(), 0);
  for (std::size_t i = 0; i < k.ops.size(); ++i) {
    if (!ir::produces_value(k.ops[i].opcode)) continue;
    value_slot_[i] = std::uint32_t(words_);
    words_ += k.ops[i].type.lanes;
  }
  var_slot_.reserve(k.vars.size());
  for (const ir::Var& v : k.vars) {
    var_slot_.push_back(std::uint32_t(words_));
    words_ += v.type.lanes;
  }
  lower_region(k.body);
  code_.push_back(Instr{});  // halt
}

bool Program::has_ext(const ir::Region& r) const {
  bool found = false;
  ir::for_each_region(r, [&](const ir::Region& sub) {
    for (const ir::Stmt& s : sub.stmts) {
      if (const auto* os = std::get_if<ir::OpStmt>(&s)) {
        if (ir::is_vlo(d_.kernel.op(os->op).opcode)) found = true;
      }
    }
  });
  return found;
}

void Program::lower_region(const ir::Region& r) {
  auto emit = [&](MOp op, std::int32_t index) {
    Instr in;
    in.op = op;
    in.index = index;
    code_.push_back(in);
    return code_.size() - 1;
  };
  for (const ir::Stmt& s : r.stmts) {
    if (const auto* os = std::get_if<ir::OpStmt>(&s)) {
      lower_op(os->op);
    } else if (const auto* loop = std::get_if<ir::LoopStmt>(&s)) {
      const hls::LoopInfo& info = d_.loop(loop->id);
      LoopDesc L;
      L.stmt = loop;
      L.pipelined = info.pipelined;
      L.ii = info.ii;
      L.depth = info.depth;
      L.var = var_slot_[static_cast<std::size_t>(loop->induction)];
      L.init = slot(loop->init);
      L.bound = slot(loop->bound);
      L.step = slot(loop->step);
      const auto li = std::int32_t(loops_.size());
      loops_.push_back(L);
      emit(MOp::loop_enter, li);
      const auto body = std::uint32_t(code_.size());
      lower_region(*loop->body);
      const auto next = std::uint32_t(code_.size());
      emit(MOp::loop_next, li);
      LoopDesc& ld = loops_[static_cast<std::size_t>(li)];
      ld.body = body;
      ld.next = next;
      ld.simple = std::all_of(
          code_.begin() + body, code_.begin() + next,
          [](const Instr& in) { return in.op < MOp::loop_enter; });
    } else if (const auto* iff = std::get_if<ir::IfStmt>(&s)) {
      const std::size_t br = emit(MOp::branch, 0);
      code_[br].a = slot(iff->cond);
      lower_region(*iff->then_body);
      if (iff->else_body->stmts.empty()) {
        code_[br].target = std::uint32_t(code_.size());
      } else {
        const std::size_t j = emit(MOp::jump, 0);
        code_[br].target = std::uint32_t(code_.size());
        lower_region(*iff->else_body);
        code_[j].target = std::uint32_t(code_.size());
      }
    } else if (const auto* crit = std::get_if<ir::CriticalStmt>(&s)) {
      emit(MOp::acquire, crit->lock_id);
      lower_region(*crit->body);
      emit(MOp::release, crit->lock_id);
    } else if (const auto* con = std::get_if<ir::ConcurrentStmt>(&s)) {
      // The branch that touches external memory runs first, so its
      // requests issue in nondecreasing global time (the other branches
      // replay from the region's start but generate no shared events).
      std::vector<std::size_t> order(con->branches.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b) {
                         return has_ext(*con->branches[a]) >
                                has_ext(*con->branches[b]);
                       });
      const auto ci = std::int32_t(num_concurrent_++);
      emit(MOp::con_begin, ci);
      for (std::size_t i = 0; i < order.size(); ++i) {
        if (i > 0) emit(MOp::con_next, ci);
        lower_region(*con->branches[order[i]]);
      }
      emit(MOp::con_end, ci);
    } else if (const auto* bar = std::get_if<ir::BarrierStmt>(&s)) {
      emit(MOp::barrier, bar->barrier_id);
    } else {
      fail("unhandled statement kind");
    }
  }
}

void Program::lower_op(ir::ValueId id) {
  const ir::Kernel& k = d_.kernel;
  const ir::Op& op = k.op(id);
  const auto i = static_cast<std::size_t>(id);
  const ir::Scalar sc = op.type.scalar;
  const bool fp = op.type.is_float();
  const bool vec = op.type.lanes > 1;
  auto A = [&](std::size_t n) { return slot(op.operands[n]); };

  Instr in;
  in.lanes = std::uint8_t(op.type.lanes);
  in.sub = std::uint8_t(op.opcode);
  in.f32 = sc == ir::Scalar::f32;
  in.wrap = sc == ir::Scalar::i32 ? 32 : 0;
  in.lat = d_.op_latency[i];
  in.start = d_.op_start[i];
  if (ir::produces_value(op.opcode)) in.dst = slot(id);
  const std::size_t nops = op.operands.size();
  if (nops > 0) in.a = A(0);
  if (nops > 1) in.b = A(1);
  if (nops > 2) in.c = A(2);

  Init init;
  init.slot = in.dst;
  switch (op.opcode) {
    case Opcode::const_int:
      init.value.i = op.i_imm;
      break;
    case Opcode::const_float:
      init.value.f = in.f32 ? double(float(op.f_imm)) : op.f_imm;
      break;
    case Opcode::thread_id:
      init.kind = Init::Kind::thread_id;
      break;
    case Opcode::num_threads:
      init.value.i = k.num_threads;
      break;
    case Opcode::read_arg:
      init.kind = Init::Kind::arg;
      init.arg = op.arg;
      init.is_float = fp;
      init.f32 = in.f32;
      break;
    case Opcode::add: in.op = vec ? MOp::viadd : MOp::iadd; break;
    case Opcode::sub: in.op = vec ? MOp::visub : MOp::isub; break;
    case Opcode::mul: in.op = vec ? MOp::vimul : MOp::imul; break;
    case Opcode::divs: in.op = vec ? MOp::vidiv : MOp::idiv; break;
    case Opcode::rems: in.op = vec ? MOp::virem : MOp::irem; break;
    case Opcode::and_: in.op = vec ? MOp::viand : MOp::iand; break;
    case Opcode::or_: in.op = vec ? MOp::vior : MOp::ior; break;
    case Opcode::xor_: in.op = vec ? MOp::vixor : MOp::ixor; break;
    case Opcode::shl: in.op = vec ? MOp::vishl : MOp::ishl; break;
    case Opcode::ashr: in.op = vec ? MOp::viashr : MOp::iashr; break;
    case Opcode::neg: in.op = vec ? MOp::vineg : MOp::ineg; break;
    case Opcode::cmp_lt:
    case Opcode::cmp_le:
    case Opcode::cmp_gt:
    case Opcode::cmp_ge:
    case Opcode::cmp_eq:
    case Opcode::cmp_ne:
      in.op = k.op(op.operands[0]).type.is_float() ? MOp::fcmp : MOp::icmp;
      break;
    case Opcode::select: in.op = MOp::select; break;
    case Opcode::fadd: in.op = vec ? MOp::vfadd : MOp::fadd; break;
    case Opcode::fsub: in.op = vec ? MOp::vfsub : MOp::fsub; break;
    case Opcode::fmul: in.op = vec ? MOp::vfmul : MOp::fmul; break;
    case Opcode::fdiv: in.op = vec ? MOp::vfdiv : MOp::fdiv; break;
    case Opcode::fneg: in.op = vec ? MOp::vfneg : MOp::fneg; break;
    case Opcode::cast: {
      const bool src_fp = k.op(op.operands[0]).type.is_float();
      in.op = src_fp ? (fp ? MOp::cast_ff : MOp::cast_fi)
                     : (fp ? MOp::cast_if : MOp::cast_ii);
      break;
    }
    case Opcode::broadcast: in.op = MOp::broadcast; break;
    case Opcode::extract:
      in.op = MOp::extract;
      in.lane = std::uint8_t(op.i_imm);
      break;
    case Opcode::insert:
      in.op = MOp::insert;
      in.lane = std::uint8_t(op.i_imm);
      break;
    case Opcode::reduce_add:
      in.op = fp ? MOp::reduce_f : MOp::reduce_i;
      in.lane = std::uint8_t(k.op(op.operands[0]).type.lanes);
      break;
    case Opcode::load_local:
    case Opcode::store_local:
      in.op = op.opcode == Opcode::load_local ? MOp::load_local
                                              : MOp::store_local;
      in.index = op.array;
      in.is_float = fp;
      in.f32 = k.local_arrays[static_cast<std::size_t>(op.array)].elem ==
               ir::Scalar::f32;
      break;
    case Opcode::var_read:
      in.op = MOp::copy;
      in.a = var_slot_[static_cast<std::size_t>(op.var)];
      break;
    case Opcode::var_write:
      in.op = MOp::copy;
      in.dst = var_slot_[static_cast<std::size_t>(op.var)];
      break;
    case Opcode::load_ext:
    case Opcode::store_ext:
      in.op = op.opcode == Opcode::load_ext ? MOp::load_ext : MOp::store_ext;
      in.index = op.arg;
      in.sub = std::uint8_t(sc);
      in.esz = std::uint32_t(op.type.scalar_bytes());
      in.bytes = std::uint32_t(op.type.bytes());
      in.move = functional_ || op.type.is_int();
      {
        const ir::Arg& arg = k.args[static_cast<std::size_t>(op.arg)];
        in.stride = std::uint32_t(arg.elem_type.scalar_bytes());
        in.limit = arg.count - op.type.lanes;
      }
      break;
    case Opcode::preload:
      in.op = MOp::preload;
      in.index = op.arg;
      in.array = op.array;
      in.sub = std::uint8_t(sc);
      in.esz = std::uint32_t(op.type.scalar_bytes());
      in.bytes = std::uint32_t(
          k.args[static_cast<std::size_t>(op.arg)].elem_type.scalar_bytes());
      in.f32 = k.local_arrays[static_cast<std::size_t>(op.array)].elem ==
               ir::Scalar::f32;
      break;
  }
  switch (op.opcode) {
    case Opcode::const_int:
    case Opcode::const_float:
    case Opcode::thread_id:
    case Opcode::num_threads:
    case Opcode::read_arg:
      // Written once per thread; the op itself only remains when its
      // latency has to be charged.
      inits_.push_back(init);
      if (in.lat == 0) return;
      in.op = MOp::nop;
      break;
    case Opcode::fadd:
    case Opcode::fsub:
    case Opcode::fmul:
    case Opcode::fdiv:
    case Opcode::fneg:
      if (!functional_) in.op = MOp::fcount;
      break;
    default:
      break;
  }
  code_.push_back(in);
}

}  // namespace hlsprof::sim
