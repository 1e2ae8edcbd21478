// Negative tests for the IR verifier: hand-built malformed kernels must be
// rejected with diagnostics.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "ir/builder.hpp"
#include "ir/verifier.hpp"

namespace hlsprof::ir {
namespace {

/// A fresh kernel with no body, ready for hand-assembly.
Kernel blank() {
  Kernel k;
  k.name = "hand";
  k.num_threads = 1;
  return k;
}

ValueId push_op(Kernel& k, Op op, Region* region = nullptr) {
  const auto id = static_cast<ValueId>(k.ops.size());
  k.ops.push_back(std::move(op));
  (region != nullptr ? region : &k.body)->stmts.push_back(OpStmt{id});
  return id;
}

Op const_i32(std::int64_t v) {
  Op op;
  op.opcode = Opcode::const_int;
  op.type = Type::i32();
  op.i_imm = v;
  return op;
}

TEST(Verifier, AcceptsMinimalKernel) {
  Kernel k = blank();
  push_op(k, const_i32(1));
  EXPECT_NO_THROW(verify(k));
}

TEST(Verifier, RejectsThreadCountOutsideOneTo64) {
  for (const int t : {0, 65, INT32_MAX}) {
    Kernel k = blank();
    k.num_threads = t;
    try {
      verify(k);
      ADD_FAILURE() << "no error for num_threads " << t;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("num_threads"), std::string::npos)
          << e.what();
    }
  }
  Kernel k = blank();
  k.num_threads = 64;
  EXPECT_NO_THROW(verify(k));
}

TEST(Verifier, RejectsUseBeforeDef) {
  Kernel k = blank();
  Op add;
  add.opcode = Opcode::add;
  add.type = Type::i32();
  add.operands = {1, 1};  // operand defined *after* this op
  push_op(k, add);
  push_op(k, const_i32(1));
  EXPECT_THROW(verify(k), Error);
}

TEST(Verifier, RejectsOutOfRangeOperand) {
  Kernel k = blank();
  Op add;
  add.opcode = Opcode::add;
  add.type = Type::i32();
  add.operands = {42, 43};
  push_op(k, add);
  EXPECT_THROW(verify(k), Error);
}

TEST(Verifier, RejectsUseOfNonValueOp) {
  Kernel k = blank();
  Var v;
  v.name = "v";
  v.type = Type::i32();
  k.vars.push_back(v);
  const ValueId c = push_op(k, const_i32(1));
  Op wr;
  wr.opcode = Opcode::var_write;
  wr.type = Type::i32();
  wr.var = 0;
  wr.operands = {c};
  const ValueId wid = push_op(k, wr);
  Op add;
  add.opcode = Opcode::add;
  add.type = Type::i32();
  add.operands = {c, wid};  // var_write has no value
  push_op(k, add);
  EXPECT_THROW(verify(k), Error);
}

TEST(Verifier, RejectsOperandCountMismatch) {
  Kernel k = blank();
  const ValueId c = push_op(k, const_i32(1));
  Op add;
  add.opcode = Opcode::add;
  add.type = Type::i32();
  add.operands = {c};  // needs 2
  push_op(k, add);
  EXPECT_THROW(verify(k), Error);
}

TEST(Verifier, RejectsBinaryTypeMismatch) {
  Kernel k = blank();
  const ValueId a = push_op(k, const_i32(1));
  Op c64;
  c64.opcode = Opcode::const_int;
  c64.type = Type::i64();
  const ValueId b = push_op(k, std::move(c64));
  Op add;
  add.opcode = Opcode::add;
  add.type = Type::i32();
  add.operands = {a, b};
  push_op(k, add);
  EXPECT_THROW(verify(k), Error);
}

TEST(Verifier, RejectsFloatOpOnIntType) {
  Kernel k = blank();
  const ValueId a = push_op(k, const_i32(1));
  Op f;
  f.opcode = Opcode::fadd;
  f.type = Type::i32();
  f.operands = {a, a};
  push_op(k, f);
  EXPECT_THROW(verify(k), Error);
}

TEST(Verifier, RejectsIntOpOnFloatType) {
  Kernel k = blank();
  Op cf;
  cf.opcode = Opcode::const_float;
  cf.type = Type::f32();
  const ValueId a = push_op(k, std::move(cf));
  Op add;
  add.opcode = Opcode::add;
  add.type = Type::f32();
  add.operands = {a, a};
  push_op(k, add);
  EXPECT_THROW(verify(k), Error);
}

TEST(Verifier, RejectsDanglingArgReference) {
  Kernel k = blank();
  Op rd;
  rd.opcode = Opcode::read_arg;
  rd.type = Type::i32();
  rd.arg = 0;  // no args declared
  push_op(k, rd);
  EXPECT_THROW(verify(k), Error);
}

TEST(Verifier, RejectsReadArgOfPointer) {
  Kernel k = blank();
  Arg a;
  a.name = "p";
  a.elem_type = Type::f32();
  a.is_pointer = true;
  a.count = 8;
  k.args.push_back(a);
  Op rd;
  rd.opcode = Opcode::read_arg;
  rd.type = Type::f32();
  rd.arg = 0;
  push_op(k, rd);
  EXPECT_THROW(verify(k), Error);
}

TEST(Verifier, RejectsLoadFromScalarArg) {
  Kernel k = blank();
  Arg a;
  a.name = "n";
  a.elem_type = Type::i32();
  k.args.push_back(a);
  const ValueId idx = push_op(k, const_i32(0));
  Op ld;
  ld.opcode = Opcode::load_ext;
  ld.type = Type::i32();
  ld.arg = 0;
  ld.operands = {idx};
  push_op(k, ld);
  EXPECT_THROW(verify(k), Error);
}

TEST(Verifier, RejectsVarTypeMismatch) {
  Kernel k = blank();
  Var v;
  v.name = "v";
  v.type = Type::f32();
  k.vars.push_back(v);
  Op rd;
  rd.opcode = Opcode::var_read;
  rd.type = Type::i32();  // declared f32
  rd.var = 0;
  push_op(k, rd);
  EXPECT_THROW(verify(k), Error);
}

TEST(Verifier, RejectsDanglingLocalArray) {
  Kernel k = blank();
  const ValueId idx = push_op(k, const_i32(0));
  Op ld;
  ld.opcode = Opcode::load_local;
  ld.type = Type::f32();
  ld.array = 3;
  ld.operands = {idx};
  push_op(k, ld);
  EXPECT_THROW(verify(k), Error);
}

TEST(Verifier, RejectsValueEscapingItsRegion) {
  // A value defined inside an if-region used after the region ends.
  Kernel k = blank();
  const ValueId cond = push_op(k, const_i32(1));
  IfStmt iff;
  iff.cond = cond;
  iff.then_body = std::make_unique<Region>();
  iff.else_body = std::make_unique<Region>();
  Op inner = const_i32(5);
  const auto inner_id = static_cast<ValueId>(k.ops.size());
  k.ops.push_back(inner);
  iff.then_body->stmts.push_back(OpStmt{inner_id});
  k.body.stmts.push_back(std::move(iff));
  Op add;
  add.opcode = Opcode::add;
  add.type = Type::i32();
  add.operands = {inner_id, inner_id};  // out of scope here
  push_op(k, add);
  EXPECT_THROW(verify(k), Error);
}

TEST(Verifier, RejectsOpPlacedTwice) {
  Kernel k = blank();
  const ValueId c = push_op(k, const_i32(1));
  k.body.stmts.push_back(OpStmt{c});  // second placement
  EXPECT_THROW(verify(k), Error);
}

TEST(Verifier, RejectsUnplacedOp) {
  Kernel k = blank();
  Op c = const_i32(1);
  k.ops.push_back(std::move(c));  // in arena but never placed
  EXPECT_THROW(verify(k), Error);
}

TEST(Verifier, RejectsCastChangingLanes) {
  Kernel k = blank();
  const ValueId a = push_op(k, const_i32(1));
  Op cast;
  cast.opcode = Opcode::cast;
  cast.type = Type::f32(4);
  cast.operands = {a};
  push_op(k, cast);
  EXPECT_THROW(verify(k), Error);
}

TEST(Verifier, RejectsBadLoopBounds) {
  Kernel k = blank();
  Var iv;
  iv.name = "i";
  iv.type = Type::i32();
  k.vars.push_back(iv);
  k.num_loops = 1;
  LoopStmt loop;
  loop.name = "i";
  loop.induction = 0;
  loop.init = 99;  // undefined value
  loop.bound = 99;
  loop.step = 99;
  loop.id = 0;
  loop.body = std::make_unique<Region>();
  k.body.stmts.push_back(std::move(loop));
  EXPECT_THROW(verify(k), Error);
}

TEST(Verifier, RejectsCriticalLockOutOfRange) {
  Kernel k = blank();
  k.num_locks = 1;
  CriticalStmt crit;
  crit.lock_id = 5;
  crit.body = std::make_unique<Region>();
  k.body.stmts.push_back(std::move(crit));
  EXPECT_THROW(verify(k), Error);
}

TEST(Verifier, RejectsSingleBranchConcurrent) {
  Kernel k = blank();
  ConcurrentStmt con;
  con.branches.push_back(std::make_unique<Region>());
  k.body.stmts.push_back(std::move(con));
  EXPECT_THROW(verify(k), Error);
}

TEST(Verifier, SiblingRegionsDoNotShareScopes) {
  // A value defined in the then-branch must not be visible in the else.
  Kernel k = blank();
  const ValueId cond = push_op(k, const_i32(1));
  IfStmt iff;
  iff.cond = cond;
  iff.then_body = std::make_unique<Region>();
  iff.else_body = std::make_unique<Region>();
  const auto inner_id = static_cast<ValueId>(k.ops.size());
  k.ops.push_back(const_i32(5));
  iff.then_body->stmts.push_back(OpStmt{inner_id});
  Op add;
  add.opcode = Opcode::add;
  add.type = Type::i32();
  add.operands = {inner_id, inner_id};
  const auto add_id = static_cast<ValueId>(k.ops.size());
  k.ops.push_back(std::move(add));
  iff.else_body->stmts.push_back(OpStmt{add_id});
  k.body.stmts.push_back(std::move(iff));
  EXPECT_THROW(verify(k), Error);
}

TEST(Verifier, ParentValuesVisibleInNestedRegions) {
  Kernel k = blank();
  const ValueId c = push_op(k, const_i32(1));
  IfStmt iff;
  iff.cond = c;
  iff.then_body = std::make_unique<Region>();
  iff.else_body = std::make_unique<Region>();
  Op add;
  add.opcode = Opcode::add;
  add.type = Type::i32();
  add.operands = {c, c};
  const auto add_id = static_cast<ValueId>(k.ops.size());
  k.ops.push_back(std::move(add));
  iff.then_body->stmts.push_back(OpStmt{add_id});
  k.body.stmts.push_back(std::move(iff));
  EXPECT_NO_THROW(verify(k));
}

}  // namespace
}  // namespace hlsprof::ir
