#include "ir/op.hpp"

namespace hlsprof::ir {

const char* opcode_name(Opcode op) {
  switch (op) {
    case Opcode::const_int: return "const_int";
    case Opcode::const_float: return "const_float";
    case Opcode::thread_id: return "thread_id";
    case Opcode::num_threads: return "num_threads";
    case Opcode::read_arg: return "read_arg";
    case Opcode::add: return "add";
    case Opcode::sub: return "sub";
    case Opcode::mul: return "mul";
    case Opcode::divs: return "divs";
    case Opcode::rems: return "rems";
    case Opcode::neg: return "neg";
    case Opcode::and_: return "and";
    case Opcode::or_: return "or";
    case Opcode::xor_: return "xor";
    case Opcode::shl: return "shl";
    case Opcode::ashr: return "ashr";
    case Opcode::cmp_lt: return "cmp_lt";
    case Opcode::cmp_le: return "cmp_le";
    case Opcode::cmp_gt: return "cmp_gt";
    case Opcode::cmp_ge: return "cmp_ge";
    case Opcode::cmp_eq: return "cmp_eq";
    case Opcode::cmp_ne: return "cmp_ne";
    case Opcode::select: return "select";
    case Opcode::fadd: return "fadd";
    case Opcode::fsub: return "fsub";
    case Opcode::fmul: return "fmul";
    case Opcode::fdiv: return "fdiv";
    case Opcode::fneg: return "fneg";
    case Opcode::cast: return "cast";
    case Opcode::broadcast: return "broadcast";
    case Opcode::extract: return "extract";
    case Opcode::insert: return "insert";
    case Opcode::reduce_add: return "reduce_add";
    case Opcode::load_ext: return "load_ext";
    case Opcode::store_ext: return "store_ext";
    case Opcode::load_local: return "load_local";
    case Opcode::store_local: return "store_local";
    case Opcode::var_read: return "var_read";
    case Opcode::var_write: return "var_write";
    case Opcode::preload: return "preload";
  }
  return "?";
}

bool produces_value(Opcode op) {
  switch (op) {
    case Opcode::store_ext:
    case Opcode::store_local:
    case Opcode::var_write:
    case Opcode::preload:
      return false;
    default:
      return true;
  }
}

bool is_vlo(Opcode op) {
  return op == Opcode::load_ext || op == Opcode::store_ext ||
         op == Opcode::preload;
}

}  // namespace hlsprof::ir
