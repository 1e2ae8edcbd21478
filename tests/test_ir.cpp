// Tests for the kernel IR: types, builder DSL, operator sugar and
// structure.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "ir/builder.hpp"

namespace hlsprof::ir {
namespace {

// ---- types ----------------------------------------------------------------

TEST(Type, SizesAndPredicates) {
  EXPECT_EQ(Type::f32().bytes(), 4);
  EXPECT_EQ(Type::f64().bytes(), 8);
  EXPECT_EQ(Type::i32(4).bytes(), 16);
  EXPECT_TRUE(Type::f32().is_float());
  EXPECT_FALSE(Type::f32().is_int());
  EXPECT_TRUE(Type::i64().is_int());
  EXPECT_TRUE(Type::f32(4).is_vector());
  EXPECT_FALSE(Type::f32().is_vector());
}

TEST(Type, WithLanesAndElement) {
  const Type v = Type::f32(8);
  EXPECT_EQ(v.element(), Type::f32());
  EXPECT_EQ(Type::f32().with_lanes(8), v);
}

TEST(Type, LaneBoundsChecked) {
  EXPECT_THROW(Type::f32(0), Error);
  EXPECT_THROW(Type::f32(kMaxLanes + 1), Error);
}

// ---- opcode metadata --------------------------------------------------------

TEST(Opcodes, ValueProduction) {
  EXPECT_TRUE(produces_value(Opcode::add));
  EXPECT_TRUE(produces_value(Opcode::load_ext));
  EXPECT_FALSE(produces_value(Opcode::store_ext));
  EXPECT_FALSE(produces_value(Opcode::store_local));
  EXPECT_FALSE(produces_value(Opcode::var_write));
}

TEST(Opcodes, VloClassification) {
  EXPECT_TRUE(is_vlo(Opcode::load_ext));
  EXPECT_TRUE(is_vlo(Opcode::store_ext));
  EXPECT_FALSE(is_vlo(Opcode::load_local));
  EXPECT_FALSE(is_vlo(Opcode::fadd));
}

// ---- builder: basics ----------------------------------------------------------

TEST(Builder, EmptyKernelVerifies) {
  KernelBuilder kb("empty", 4);
  const Kernel k = std::move(kb).finish();
  EXPECT_EQ(k.name, "empty");
  EXPECT_EQ(k.num_threads, 4);
  EXPECT_TRUE(k.body.stmts.empty());
}

TEST(Builder, RejectsBadThreadCount) {
  EXPECT_THROW(KernelBuilder("x", 0), Error);
  EXPECT_THROW(KernelBuilder("x", 65), Error);
}

TEST(Builder, ConstantsHaveTypesAndPayloads) {
  KernelBuilder kb("k", 1);
  Val a = kb.c32(42);
  Val b = kb.cf32(2.5);
  EXPECT_EQ(a.type(), Type::i32());
  EXPECT_EQ(b.type(), Type::f32());
  const Kernel k = std::move(kb).finish();
  EXPECT_EQ(k.op(a.id()).i_imm, 42);
  EXPECT_DOUBLE_EQ(k.op(b.id()).f_imm, 2.5);
}

TEST(Builder, I32ImmediateOutsideInt32Rejected) {
  // An i32 word holding 2^32 would compare as 2^32 but compute as 0.
  for (const std::int64_t v : {std::int64_t{1} << 32,
                               std::int64_t{INT32_MAX} + 1,
                               std::int64_t{INT32_MIN} - 1}) {
    KernelBuilder kb("k", 1);
    kb.c32(v);
    EXPECT_THROW(std::move(kb).finish(), Error) << v;
  }
  KernelBuilder kb("k", 1);
  kb.c32(INT32_MIN);
  kb.c32(INT32_MAX);
  kb.c64(std::int64_t{1} << 32);
  EXPECT_NO_THROW(std::move(kb).finish());
}

TEST(Builder, TypeDirectedArithmetic) {
  KernelBuilder kb("k", 1);
  Val i = kb.c32(1) + kb.c32(2);
  Val f = kb.cf32(1) + kb.cf32(2);
  const Kernel k = std::move(kb).finish();
  EXPECT_EQ(k.op(i.id()).opcode, Opcode::add);
  EXPECT_EQ(k.op(f.id()).opcode, Opcode::fadd);
}

TEST(Builder, MixedScalarTypesRejected) {
  KernelBuilder kb("k", 1);
  Val i = kb.c32(1);
  Val f = kb.cf32(1);
  EXPECT_THROW(kb.add(i, f), Error);
}

TEST(Builder, ImplicitBroadcastOnLaneMismatch) {
  KernelBuilder kb("k", 1);
  Val v = kb.broadcast(kb.cf32(1), 4);
  Val s = kb.cf32(2);
  Val sum = kb.add(v, s);
  EXPECT_EQ(sum.type(), Type::f32(4));
  const Kernel k = std::move(kb).finish();
  // An implicit broadcast op must have been inserted for the scalar.
  EXPECT_EQ(k.op(k.op(sum.id()).operands[1]).opcode, Opcode::broadcast);
}

TEST(Builder, VectorVectorLaneMismatchRejected) {
  KernelBuilder kb("k", 1);
  Val a = kb.broadcast(kb.cf32(1), 4);
  Val b = kb.broadcast(kb.cf32(1), 8);
  EXPECT_THROW(kb.add(a, b), Error);
}

TEST(Builder, ComparisonsAreScalarI32) {
  KernelBuilder kb("k", 1);
  Val c = kb.c32(1) < kb.c32(2);
  EXPECT_EQ(c.type(), Type::i32());
  KernelBuilder kb2("k2", 1);
  Val v = kb2.broadcast(kb2.c32(1), 4);
  EXPECT_THROW(kb2.lt(v, v), Error);
  (void)std::move(kb).finish();
}

TEST(Builder, SelectRequiresScalarCondition) {
  KernelBuilder kb("k", 1);
  Val c = kb.c32(1);
  Val r = kb.select(c, kb.cf32(1), kb.cf32(2));
  EXPECT_EQ(r.type(), Type::f32());
  EXPECT_THROW(kb.select(kb.cf32(1), kb.c32(0), kb.c32(1)), Error);
}

TEST(Builder, CastChangesScalarKeepsLanes) {
  KernelBuilder kb("k", 1);
  Val i = kb.broadcast(kb.c32(3), 4);
  Val f = kb.cast(i, Type::f32(4));
  EXPECT_EQ(f.type(), Type::f32(4));
  // Casting to the same type is the identity (no op emitted).
  Val same = kb.cast(f, Type::f32(4));
  EXPECT_EQ(same.id(), f.id());
}

TEST(Builder, RemRequiresIntegers) {
  KernelBuilder kb("k", 1);
  EXPECT_THROW(kb.rem(kb.cf32(1), kb.cf32(2)), Error);
}

TEST(Builder, ImmediateOperatorsAdoptScalarType) {
  KernelBuilder kb("k", 1);
  Val i = kb.c32(5) + std::int64_t(3);
  Val f = kb.cf32(5) + 3.0;
  const Kernel k = std::move(kb).finish();
  EXPECT_EQ(k.op(i.id()).opcode, Opcode::add);
  EXPECT_EQ(k.op(f.id()).opcode, Opcode::fadd);
}

// ---- builder: vectors ---------------------------------------------------------

TEST(Builder, ExtractInsertReduce) {
  KernelBuilder kb("k", 1);
  Val v = kb.broadcast(kb.cf32(1), 4);
  Val e = kb.extract(v, 2);
  EXPECT_EQ(e.type(), Type::f32());
  Val v2 = kb.insert(v, kb.cf32(9), 1);
  EXPECT_EQ(v2.type(), Type::f32(4));
  Val r = kb.reduce_add(v2);
  EXPECT_EQ(r.type(), Type::f32());
  EXPECT_THROW(kb.extract(v, 4), Error);
  EXPECT_THROW(kb.insert(v, kb.c32(1), 0), Error);  // scalar type mismatch
  EXPECT_THROW(kb.reduce_add(e), Error);            // not a vector
}

TEST(Builder, BroadcastRequiresScalar) {
  KernelBuilder kb("k", 1);
  Val v = kb.broadcast(kb.cf32(1), 4);
  EXPECT_THROW(kb.broadcast(v, 8), Error);
}

// ---- builder: args / memory ------------------------------------------------------

TEST(Builder, PointerArgsCarryMapClauses) {
  KernelBuilder kb("k", 2);
  auto p = kb.ptr_arg("x", Type::f32(), MapDir::to, 64);
  (void)p;
  const Kernel k = std::move(kb).finish();
  ASSERT_EQ(k.args.size(), 1u);
  EXPECT_TRUE(k.args[0].is_pointer);
  EXPECT_EQ(k.args[0].map, MapDir::to);
  EXPECT_EQ(k.args[0].count, 64);
}

TEST(Builder, PointerArgRejectsVectorElem) {
  KernelBuilder kb("k", 1);
  EXPECT_THROW(kb.ptr_arg("x", Type::f32(4), MapDir::to, 8), Error);
  EXPECT_THROW(kb.ptr_arg("y", Type::f32(), MapDir::to, 0), Error);
}

TEST(Builder, LoadStoreTyping) {
  KernelBuilder kb("k", 1);
  auto p = kb.ptr_arg("x", Type::f32(), MapDir::tofrom, 64);
  Val idx = kb.c32(0);
  Val v = kb.load(p, idx, 4);
  EXPECT_EQ(v.type(), Type::f32(4));
  kb.store(p, idx, v);
  EXPECT_THROW(kb.load(p, kb.cf32(0)), Error);       // float index
  EXPECT_THROW(kb.store(p, idx, kb.c32(1)), Error);  // wrong value type
}

TEST(Builder, LocalArrays) {
  KernelBuilder kb("k", 1);
  auto a = kb.local_array("buf", Scalar::f32, 32);
  Val v = kb.load_local(a, kb.c32(0), 4);
  EXPECT_EQ(v.type(), Type::f32(4));
  kb.store_local(a, kb.c32(4), v);
  EXPECT_THROW(kb.local_array("bad", Scalar::f32, 0), Error);
  EXPECT_THROW(kb.local_array("bad2", Scalar::f32, 8, 9), Error);
}

// ---- builder: vars ------------------------------------------------------------------

TEST(Builder, VarReadWrite) {
  KernelBuilder kb("k", 1);
  auto v = kb.var_init("acc", kb.cf32(0));
  v.set(v.get() + kb.cf32(1));
  const Kernel k = std::move(kb).finish();
  ASSERT_EQ(k.vars.size(), 1u);
  EXPECT_EQ(k.vars[0].name, "acc");
  EXPECT_EQ(k.vars[0].type, Type::f32());
}

TEST(Builder, VarSetTypeMismatchRejected) {
  KernelBuilder kb("k", 1);
  auto v = kb.var("acc", Type::f32());
  EXPECT_THROW(v.set(kb.c32(1)), Error);
}

// ---- builder: control -------------------------------------------------------------

TEST(Builder, ForLoopStructure) {
  KernelBuilder kb("k", 1);
  kb.for_loop("i", kb.c32(0), kb.c32(10), kb.c32(1), [&](Val i) {
    (void)(i + std::int64_t(1));
  });
  const Kernel k = std::move(kb).finish();
  EXPECT_EQ(k.num_loops, 1);
  const auto* loop = std::get_if<LoopStmt>(&k.body.stmts.back());
  ASSERT_NE(loop, nullptr);
  EXPECT_EQ(loop->name, "i");
  EXPECT_TRUE(loop->pipeline);
  // Body starts with the induction var_read handed to the closure.
  const auto* first = std::get_if<OpStmt>(&loop->body->stmts.front());
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(k.op(first->op).opcode, Opcode::var_read);
}

TEST(Builder, ForLoopTypeChecks) {
  KernelBuilder kb("k", 1);
  EXPECT_THROW(
      kb.for_loop("i", kb.cf32(0), kb.cf32(1), kb.cf32(1), [](Val) {}),
      Error);
  EXPECT_THROW(kb.for_loop("j", kb.c32(0), kb.c64(1), kb.c32(1), [](Val) {}),
               Error);
}

TEST(Builder, NestedLoopsGetDistinctIds) {
  KernelBuilder kb("k", 1);
  kb.for_loop("i", kb.c32(0), kb.c32(4), kb.c32(1), [&](Val) {
    kb.for_loop("j", kb.c32(0), kb.c32(4), kb.c32(1), [&](Val) {});
  });
  const Kernel k = std::move(kb).finish();
  EXPECT_EQ(k.num_loops, 2);
}

TEST(Builder, IfThenElseRegions) {
  KernelBuilder kb("k", 1);
  Val c = kb.c32(1);
  kb.if_then_else(c, [&] { kb.c32(10); }, [&] { kb.c32(20); });
  const Kernel k = std::move(kb).finish();
  const auto* iff = std::get_if<IfStmt>(&k.body.stmts.back());
  ASSERT_NE(iff, nullptr);
  EXPECT_EQ(iff->then_body->stmts.size(), 1u);
  EXPECT_EQ(iff->else_body->stmts.size(), 1u);
}

TEST(Builder, IfConditionMustBeScalarI32) {
  KernelBuilder kb("k", 1);
  EXPECT_THROW(kb.if_then(kb.cf32(1), [] {}), Error);
}

TEST(Builder, CriticalTracksLockIds) {
  KernelBuilder kb("k", 2);
  kb.critical(3, [&] { kb.c32(1); });
  const Kernel k = std::move(kb).finish();
  EXPECT_EQ(k.num_locks, 4);
  const auto* crit = std::get_if<CriticalStmt>(&k.body.stmts.back());
  ASSERT_NE(crit, nullptr);
  EXPECT_EQ(crit->lock_id, 3);
}

TEST(Builder, CriticalRejectsBadLockId) {
  KernelBuilder kb("k", 1);
  EXPECT_THROW(kb.critical(-1, [] {}), Error);
  EXPECT_THROW(kb.critical(64, [] {}), Error);
}

TEST(Builder, ConcurrentNeedsTwoBranches) {
  KernelBuilder kb("k", 1);
  EXPECT_THROW(kb.concurrent({[] {}}, true), Error);
}

TEST(Builder, ConcurrentRecordsBranches) {
  KernelBuilder kb("k", 1);
  kb.concurrent({[&] { kb.c32(1); }, [&] { kb.c32(2); }}, true);
  const Kernel k = std::move(kb).finish();
  const auto* con = std::get_if<ConcurrentStmt>(&k.body.stmts.back());
  ASSERT_NE(con, nullptr);
  EXPECT_EQ(con->branches.size(), 2u);
  EXPECT_TRUE(con->user_asserted_independent);
}

TEST(Builder, BarrierStmt) {
  KernelBuilder kb("k", 4);
  kb.barrier(0);
  const Kernel k = std::move(kb).finish();
  EXPECT_TRUE(std::holds_alternative<BarrierStmt>(k.body.stmts.back()));
}

TEST(Builder, CrossBuilderOperandsRejected) {
  KernelBuilder a("a", 1);
  KernelBuilder b("b", 1);
  Val x = a.c32(1);
  Val y = b.c32(2);
  EXPECT_THROW((void)(x + y), Error);
}

// ---- misc ---------------------------------------------------------------------------

TEST(Builder, FinishVerifiesAutomatically) {
  // Constructing ill-formed IR through the builder API is prevented at
  // build time; finish() re-verifies as a backstop. This must not throw.
  KernelBuilder kb("ok", 8);
  auto p = kb.ptr_arg("x", Type::f32(), MapDir::tofrom, 128);
  Val tid = kb.thread_id();
  Val nt = kb.num_threads_val();
  kb.for_loop("i", tid, kb.c32(128), nt, [&](Val i) {
    kb.store(p, i, kb.load(p, i) * 2.0);
  });
  EXPECT_NO_THROW((void)std::move(kb).finish());
}

TEST(Builder, UnbalancedRegionsCaught) {
  // The builder API cannot produce unbalanced regions, but Val misuse can:
  // using an invalid Val must throw rather than corrupt.
  KernelBuilder kb("k", 1);
  Val invalid;
  EXPECT_THROW(kb.add(invalid, kb.c32(1)), Error);
  EXPECT_THROW((void)invalid.type(), Error);
}

}  // namespace
}  // namespace hlsprof::ir
