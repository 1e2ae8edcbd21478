// Tests for the textual OpenMP-C frontend: lexer, parser, lowering, and
// end-to-end execution of source-compiled kernels on the simulator.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "frontend/lexer.hpp"
#include "frontend/lower.hpp"
#include "frontend/parser.hpp"
#include "hls/compiler.hpp"
#include "sim/simulator.hpp"
#include "workloads/reference.hpp"

namespace hlsprof::frontend {
namespace {

// ---- lexer ------------------------------------------------------------------

TEST(Lexer, TokenKinds) {
  const auto toks = lex("foo 42 3.5f 1e3 + <= #pragma omp critical\n;");
  ASSERT_GE(toks.size(), 8u);
  EXPECT_EQ(toks[0].kind, Tok::identifier);
  EXPECT_EQ(toks[0].text, "foo");
  EXPECT_EQ(toks[1].kind, Tok::int_literal);
  EXPECT_EQ(toks[1].int_value, 42);
  EXPECT_EQ(toks[2].kind, Tok::float_literal);
  EXPECT_DOUBLE_EQ(toks[2].float_value, 3.5);
  EXPECT_EQ(toks[3].kind, Tok::float_literal);
  EXPECT_DOUBLE_EQ(toks[3].float_value, 1000.0);
  EXPECT_EQ(toks[4].text, "+");
  EXPECT_EQ(toks[5].text, "<=");
  EXPECT_EQ(toks[6].kind, Tok::pragma);
  EXPECT_EQ(toks[6].text, "omp critical");
  EXPECT_EQ(toks[7].text, ";");
  EXPECT_EQ(toks.back().kind, Tok::end_of_file);
}

TEST(Lexer, CommentsSkipped) {
  const auto toks = lex("a // line comment\n/* block\ncomment */ b");
  ASSERT_EQ(toks.size(), 3u);  // a, b, eof
  EXPECT_EQ(toks[0].text, "a");
  EXPECT_EQ(toks[1].text, "b");
}

TEST(Lexer, UnterminatedCommentRejected) {
  EXPECT_THROW(lex("a /* oops"), Error);
}

TEST(Lexer, StrayCharacterRejected) { EXPECT_THROW(lex("a ` b"), Error); }

TEST(Lexer, LineNumbersTracked) {
  const auto toks = lex("a\nb\n  c");
  EXPECT_EQ(toks[0].line, 1);
  EXPECT_EQ(toks[1].line, 2);
  EXPECT_EQ(toks[2].line, 3);
}

TEST(Lexer, CompoundOperators) {
  const auto toks = lex("++ += == != && ||");
  EXPECT_EQ(toks[0].text, "++");
  EXPECT_EQ(toks[1].text, "+=");
  EXPECT_EQ(toks[2].text, "==");
  EXPECT_EQ(toks[3].text, "!=");
  EXPECT_EQ(toks[4].text, "&&");
  EXPECT_EQ(toks[5].text, "||");
}

// ---- parser -------------------------------------------------------------------

constexpr const char* kMinimal = R"(
void f(float* x, int n) {
  #pragma omp target parallel map(tofrom: x[0:16]) num_threads(4)
  {
    int tid = omp_get_thread_num();
    for (int i = tid; i < n; i += omp_get_num_threads()) {
      x[i] = x[i] * 2.0f;
    }
  }
}
)";

TEST(Parser, MinimalKernel) {
  const ast::KernelFn fn = parse(kMinimal);
  EXPECT_EQ(fn.name, "f");
  ASSERT_EQ(fn.params.size(), 2u);
  EXPECT_EQ(fn.params[0].type, "float*");
  EXPECT_EQ(fn.params[1].type, "int");
  EXPECT_EQ(fn.num_threads, 4);
  ASSERT_EQ(fn.maps.size(), 1u);
  EXPECT_EQ(fn.maps[0].direction, "tofrom");
  EXPECT_EQ(fn.body.size(), 2u);  // decl + for
}

TEST(Parser, RejectsNonVoidReturn) {
  EXPECT_THROW(parse("int f() { }"), Error);
}

TEST(Parser, RejectsMissingTargetPragma) {
  EXPECT_THROW(parse("void f(int n) { { } }"), Error);
}

TEST(Parser, RejectsUnknownClause) {
  EXPECT_THROW(parse("void f() {\n#pragma omp target parallel schedule(1)\n"
                     "{ } }"),
               Error);
}

TEST(Parser, RejectsUnsupportedCall) {
  const std::string src =
      "void f(int n) {\n#pragma omp target parallel\n"
      "{ int x = rand(); } }";
  EXPECT_THROW(parse(src), Error);
}

TEST(Parser, ForLoopNormalization) {
  // `<=` and `i++` are normalized at parse time.
  const std::string src =
      "void f(int n) {\n#pragma omp target parallel\n"
      "{ int s = 0; for (int i = 0; i <= 4; i++) { s = s + i; } } }";
  const ast::KernelFn fn = parse(src);
  const auto* loop = std::get_if<ast::ForStmt>(&fn.body[1]->node);
  ASSERT_NE(loop, nullptr);
  EXPECT_EQ(loop->induction, "i");
}

TEST(Parser, RejectsMalformedFor) {
  const std::string bad_cond =
      "void f() {\n#pragma omp target parallel\n"
      "{ for (int i = 0; i > 4; i++) { } } }";
  EXPECT_THROW(parse(bad_cond), Error);
  const std::string wrong_iv =
      "void f() {\n#pragma omp target parallel\n"
      "{ for (int i = 0; j < 4; i++) { } } }";
  EXPECT_THROW(parse(wrong_iv), Error);
}

TEST(Parser, UnrollPragmaAttachesToLoop) {
  const std::string src =
      "void f() {\n#pragma omp target parallel\n"
      "{ int s = 0;\n#pragma unroll 4\nfor (int i = 0; i < 4; i++) "
      "{ s += i; } } }";
  const ast::KernelFn fn = parse(src);
  const auto* loop = std::get_if<ast::ForStmt>(&fn.body[1]->node);
  ASSERT_NE(loop, nullptr);
  EXPECT_EQ(loop->unroll, 4);
}

TEST(Parser, UnrollPragmaWithoutLoopRejected) {
  const std::string src =
      "void f() {\n#pragma omp target parallel\n"
      "{\n#pragma unroll 4\nint s = 0; } }";
  EXPECT_THROW(parse(src), Error);
}

// ---- lowering + execution ---------------------------------------------------------

/// Compile source, run on the simulator with `x` bound, return the result.
std::vector<float> run_on_x(const std::string& src, std::vector<float> x,
                            const LowerOptions& opts = LowerOptions{},
                            std::int64_t n_arg = -1) {
  ir::Kernel k = compile_source(src, opts);
  hls::Design d = hls::compile(std::move(k));
  sim::SimParams p;
  p.host.thread_start_interval = 100;
  sim::Simulator sim(d, p, 1 << 20);
  sim.bind_f32("x", x);
  if (n_arg >= 0) sim.set_arg("n", n_arg);
  sim.run();
  return x;
}

TEST(Lowering, ScaleKernelEndToEnd) {
  std::vector<float> x{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  const auto out = run_on_x(kMinimal, x, LowerOptions{}, 16);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_FLOAT_EQ(out[i], x[i] * 2);
}

TEST(Lowering, MapExtentFromConstants) {
  const std::string src = R"(
void f(float* x, int N) {
  #pragma omp target parallel map(tofrom: x[0:N]) num_threads(2)
  {
    for (int i = omp_get_thread_num(); i < N; i += 2) { x[i] = 1.0f; }
  }
}
)";
  LowerOptions opts;
  opts.constants["N"] = 8;
  ir::Kernel k = compile_source(src, opts);
  hls::Design d = hls::compile(std::move(k));
  sim::SimParams p;
  p.host.thread_start_interval = 100;
  sim::Simulator sim(d, p, 1 << 20);
  std::vector<float> x(8, 0.0f);
  sim.bind_f32("x", x);
  sim.set_arg("N", std::int64_t(8));
  sim.run();
  for (float v : x) EXPECT_FLOAT_EQ(v, 1.0f);
}

TEST(Lowering, UnfoldableExtentRejected) {
  const std::string src = R"(
void f(float* x, int N) {
  #pragma omp target parallel map(tofrom: x[0:N])
  { }
}
)";
  EXPECT_THROW(compile_source(src), Error);
}

/// Compiles a kernel whose map extent (on line 2) is `extent` and expects
/// an Error naming that line, not a crash or a wrapped value.
void expect_extent_overflow(const std::string& extent) {
  const std::string src = "void f(float* x) {\n"
                          "#pragma omp target parallel "
                          "map(tofrom: x[0:" + extent + "])\n"
                          "{ } }";
  try {
    compile_source(src);
    ADD_FAILURE() << "no error for " << extent;
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2:"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("overflows"), std::string::npos)
        << e.what();
  }
}

TEST(Frontend, FoldedDivisionOverflowIsAnError) {
  expect_extent_overflow("(-9223372036854775807 - 1) / -1");
}

TEST(Frontend, FoldedRemainderOverflowIsAnError) {
  expect_extent_overflow("(-9223372036854775807 - 1) % -1");
}

TEST(Frontend, FoldedAdditionOverflowIsAnError) {
  expect_extent_overflow("9223372036854775807 + 1");
}

TEST(Frontend, FoldedSubtractionOverflowIsAnError) {
  expect_extent_overflow("-9223372036854775807 - 2");
}

TEST(Frontend, FoldedMultiplicationOverflowIsAnError) {
  expect_extent_overflow("4294967296 * 4294967296");
}

TEST(Frontend, FoldedNegationOverflowIsAnError) {
  expect_extent_overflow("-(-9223372036854775807 - 1)");
}

TEST(Frontend, FoldedOverflowInTheBodyNamesItsLine) {
  const std::string src = "void f(float* x) {\n"
                          "#pragma omp target parallel map(tofrom: x[0:4])\n"
                          "{ int s = 0;\n"
                          "  s = 1 + 4611686018427387904 * 2; } }";
  try {
    compile_source(src);
    ADD_FAILURE() << "no error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 4:"), std::string::npos)
        << e.what();
  }
}

TEST(Frontend, IntConstantOutsideInt32NamesItsLine) {
  // C gives `s < 1` true here and `s + 0` an int64 sum; a wrapped i32
  // word would give neither, so the constant is rejected.
  const std::string src = "void f(float* x) {\n"
                          "#pragma omp target parallel map(tofrom: x[0:4])\n"
                          "{ int s = 4294967296;\n"
                          "  if (s < 1) { x[0] = 1.0f; }\n"
                          "  x[1] = s + 0; } }";
  try {
    compile_source(src);
    ADD_FAILURE() << "no error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3:"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("4294967296"), std::string::npos)
        << e.what();
  }
}

TEST(Frontend, InclusiveLoopBoundOverflowNamesItsLine) {
  // `i <= b` is normalized to `i < b + 1`, which folds.
  const std::string src =
      "void f(float* x) {\n"
      "#pragma omp target parallel map(tofrom: x[0:4])\n"
      "{ int s = 0;\n"
      "  for (int i = 0; i <= 9223372036854775807; i++) { s = s + i; } } }";
  try {
    compile_source(src);
    ADD_FAILURE() << "no error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 4:"), std::string::npos)
        << e.what();
  }
}

TEST(Frontend, FoldedArithmeticInRangeStillFolds) {
  // The largest values that stay in range fold as before.
  LowerOptions opts;
  opts.constants["N"] = 4;
  const ir::Kernel k = compile_source(
      "void f(float* x) {\n#pragma omp target parallel "
      "map(tofrom: x[0:(-9223372036854775807 - 1) / -2 - "
      "4611686018427387900 + N * 3 % 5 - -1])\n{ } }",
      opts);
  ASSERT_EQ(k.args.size(), 1u);
  EXPECT_EQ(k.args[0].count, 4 + 2 + 1);
}

TEST(Lowering, UnmappedPointerRejected) {
  const std::string src =
      "void f(float* x) {\n#pragma omp target parallel\n{ } }";
  EXPECT_THROW(compile_source(src), Error);
}

TEST(Lowering, CriticalAndReduction) {
  const std::string src = R"(
void dotk(float* x, float* out) {
  #pragma omp target parallel map(to: x[0:64]) map(tofrom: out[0:1]) num_threads(4)
  {
    float sum = 0.0f;
    for (int i = omp_get_thread_num(); i < 64; i += omp_get_num_threads()) {
      sum += x[i];
    }
    #pragma omp critical
    { out[0] += sum; }
  }
}
)";
  ir::Kernel k = compile_source(src);
  EXPECT_EQ(k.num_threads, 4);
  hls::Design d = hls::compile(std::move(k));
  EXPECT_TRUE(d.stats.uses_critical);
  sim::SimParams p;
  p.host.thread_start_interval = 100;
  sim::Simulator sim(d, p, 1 << 20);
  auto x = workloads::random_vector(64, 7);
  std::vector<float> out(1, 0.0f);
  sim.bind_f32("x", x);
  sim.bind_f32("out", out);
  sim.run();
  double ref = 0;
  for (float v : x) ref += double(v);
  EXPECT_NEAR(out[0], ref, 1e-3);
}

TEST(Lowering, LocalArrayAndTwoPhaseCopy) {
  const std::string src = R"(
void stage(float* x, float* y) {
  #pragma omp target parallel map(to: x[0:32]) map(from: y[0:32]) num_threads(1)
  {
    float buf[32];
    for (int i = 0; i < 32; i++) { buf[i] = x[i] + 1.0f; }
    for (int i = 0; i < 32; i++) { y[i] = buf[i] * 2.0f; }
  }
}
)";
  ir::Kernel k = compile_source(src);
  ASSERT_EQ(k.local_arrays.size(), 1u);
  EXPECT_EQ(k.local_arrays[0].size, 32);
  hls::Design d = hls::compile(std::move(k));
  sim::SimParams p;
  p.host.thread_start_interval = 100;
  sim::Simulator sim(d, p, 1 << 20);
  auto x = workloads::random_vector(32, 8);
  std::vector<float> y(32, 0.0f);
  sim.bind_f32("x", x);
  sim.bind_f32("y", y);
  sim.run();
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_FLOAT_EQ(y[i], (x[i] + 1.0f) * 2.0f);
  }
}

TEST(Lowering, UnrollFullyReplicatesBody) {
  const std::string src = R"(
void f(float* x) {
  #pragma omp target parallel map(tofrom: x[0:4]) num_threads(1)
  {
    #pragma unroll 4
    for (int i = 0; i < 4; i++) { x[i] = x[i] + 1.0f; }
  }
}
)";
  ir::Kernel k = compile_source(src);
  // A fully unrolled loop leaves no LoopStmt behind.
  EXPECT_EQ(k.num_loops, 0);
  // But four stores.
  int stores = 0;
  for (const auto& op : k.ops) {
    if (op.opcode == ir::Opcode::store_ext) ++stores;
  }
  EXPECT_EQ(stores, 4);
  std::vector<float> x{1, 2, 3, 4};
  hls::Design d = hls::compile(std::move(k));
  sim::SimParams p;
  p.host.thread_start_interval = 100;
  sim::Simulator sim(d, p, 1 << 20);
  sim.bind_f32("x", x);
  sim.run();
  EXPECT_FLOAT_EQ(x[0], 2.0f);
  EXPECT_FLOAT_EQ(x[3], 5.0f);
}

TEST(Lowering, UnrollGuardsAgainstHugeTripCounts) {
  const std::string src = R"(
void f(float* x) {
  #pragma omp target parallel map(tofrom: x[0:4])
  {
    #pragma unroll 2
    for (int i = 0; i < 100000; i++) { x[0] = x[0] + 1.0f; }
  }
}
)";
  EXPECT_THROW(compile_source(src), Error);
}

TEST(Lowering, NoPipelinePragmaRespected) {
  const std::string src = R"(
void f(float* x) {
  #pragma omp target parallel map(tofrom: x[0:8])
  {
    #pragma nymble nopipeline
    for (int i = 0; i < 8; i++) { x[i] = x[i] + 1.0f; }
  }
}
)";
  ir::Kernel k = compile_source(src);
  hls::Design d = hls::compile(std::move(k));
  EXPECT_FALSE(d.loop(0).pipelined);
}

TEST(Lowering, IfElseAndLogicalOps) {
  const std::string src = R"(
void f(float* x, int n) {
  #pragma omp target parallel map(tofrom: x[0:16]) num_threads(1)
  {
    for (int i = 0; i < 16; i++) {
      if (i % 2 == 0 && i < 8) { x[i] = 1.0f; }
      else { x[i] = -1.0f; }
    }
  }
}
)";
  std::vector<float> x(16, 0.0f);
  const auto out = run_on_x(src, x, LowerOptions{}, 16);
  for (int i = 0; i < 16; ++i) {
    EXPECT_FLOAT_EQ(out[std::size_t(i)], (i % 2 == 0 && i < 8) ? 1.0f : -1.0f)
        << i;
  }
}

TEST(Lowering, BarrierLowered) {
  const std::string src = R"(
void f(float* x) {
  #pragma omp target parallel map(tofrom: x[0:8]) num_threads(2)
  {
    x[omp_get_thread_num()] = 1.0f;
    #pragma omp barrier
    x[omp_get_thread_num() + 2] = x[1 - omp_get_thread_num()];
  }
}
)";
  ir::Kernel k = compile_source(src);
  bool has_barrier = false;
  for (const auto& s : k.body.stmts) {
    has_barrier |= std::holds_alternative<ir::BarrierStmt>(s);
  }
  EXPECT_TRUE(has_barrier);
}

TEST(Lowering, UnknownIdentifierDiagnosed) {
  const std::string src =
      "void f() {\n#pragma omp target parallel\n{ int a = b; } }";
  EXPECT_THROW(compile_source(src), Error);
}

TEST(Lowering, FloatToIntAssignmentRejected) {
  const std::string src =
      "void f() {\n#pragma omp target parallel\n{ int a = 1.5f; } }";
  EXPECT_THROW(compile_source(src), Error);
}

TEST(Lowering, GemmFromSourceMatchesReference) {
  // The paper's Fig. 3 kernel, written as C source, compiled through the
  // textual frontend, and validated against the host reference.
  const std::string src = R"(
void matmul(float* A, float* B, float* C, int DIM) {
  #pragma omp target parallel map(to: A[0:DIM*DIM], B[0:DIM*DIM]) map(tofrom: C[0:DIM*DIM]) num_threads(8)
  {
    int my_id = omp_get_thread_num();
    int num_threads = omp_get_num_threads();
    for (int i = 0; i < DIM; i++) {
      for (int j = 0; j < DIM; j++) {
        float sum = 0.0f;
        for (int k = my_id; k < DIM; k += num_threads) {
          sum += A[i * DIM + k] * B[k * DIM + j];
        }
        #pragma omp critical
        { C[i * DIM + j] += sum; }
      }
    }
  }
}
)";
  const int dim = 16;
  LowerOptions opts;
  opts.constants["DIM"] = dim;
  ir::Kernel k = compile_source(src, opts);
  hls::Design d = hls::compile(std::move(k));
  sim::SimParams p;
  p.host.thread_start_interval = 100;
  sim::Simulator sim(d, p, 1 << 22);
  auto a = workloads::random_matrix(dim, 1);
  auto b = workloads::random_matrix(dim, 2);
  std::vector<float> c(std::size_t(dim) * dim, 0.0f);
  sim.bind_f32("A", a);
  sim.bind_f32("B", b);
  sim.bind_f32("C", c);
  sim.set_arg("DIM", std::int64_t(dim));
  sim.run();
  EXPECT_LT(workloads::max_rel_error(
                c, workloads::gemm_reference(a, b, dim)),
            1e-3);
}

}  // namespace
}  // namespace hlsprof::frontend
