#include "frontend/lower.hpp"

#include <limits>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "frontend/parser.hpp"
#include "ir/builder.hpp"
#include "telemetry/telemetry.hpp"

namespace hlsprof::frontend {

namespace {

using ast::Expr;
using ast::KernelFn;
using ast::Stmt;
using ir::KernelBuilder;
using ir::Val;

struct Symbol {
  enum class Kind {
    value,   // immutable SSA value (loop inductions, scalar params)
    var,     // mutable scalar
    ptr,     // external pointer param
    local,   // per-thread local array
    cint,    // compile-time constant (unroll-substituted IVs, -D constants)
  };
  Kind kind = Kind::value;
  Val value;
  ir::VarHandle var;
  ir::PtrHandle ptr;
  ir::LocalHandle local;
  std::int64_t cint = 0;
};

class Lowerer {
 public:
  Lowerer(const KernelFn& fn, const LowerOptions& opts)
      : fn_(fn), opts_(opts), kb_(fn.name, fn.num_threads) {}

  ir::Kernel run() {
    push_scope();
    declare_params();
    lower_block(fn_.body);
    pop_scope();
    return std::move(kb_).finish();
  }

 private:
  [[noreturn]] void error(int line, const std::string& msg) const {
    fail(strf("frontend error at line %d: %s", line, msg.c_str()));
  }

  // ---- scopes ------------------------------------------------------------
  void push_scope() { scopes_.emplace_back(); }
  void pop_scope() { scopes_.pop_back(); }
  Symbol* find(const std::string& name) {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      auto found = it->find(name);
      if (found != it->end()) return &found->second;
    }
    return nullptr;
  }
  void declare(int line, const std::string& name, Symbol sym) {
    if (scopes_.back().count(name) != 0) {
      error(line, "redeclaration of '" + name + "'");
    }
    scopes_.back().emplace(name, std::move(sym));
  }

  // ---- parameters / map clauses --------------------------------------------
  void declare_params() {
    for (const ast::Param& p : fn_.params) {
      Symbol sym;
      if (p.type == "int*" || p.type == "float*") {
        const ast::MapItem* item = nullptr;
        for (const ast::MapItem& m : fn_.maps) {
          if (m.name == p.name) {
            HLSPROF_CHECK(item == nullptr,
                          "parameter '" + p.name + "' mapped twice");
            item = &m;
          }
        }
        HLSPROF_CHECK(item != nullptr, "pointer parameter '" + p.name +
                                           "' has no map() clause");
        const std::int64_t extent = fold_or_fail(*item->extent);
        ir::MapDir dir = ir::MapDir::tofrom;
        if (item->direction == "to") dir = ir::MapDir::to;
        if (item->direction == "from") dir = ir::MapDir::from;
        if (item->direction == "alloc") dir = ir::MapDir::alloc;
        sym.kind = Symbol::Kind::ptr;
        sym.ptr = kb_.ptr_arg(
            p.name, p.type == "int*" ? ir::Type::i32() : ir::Type::f32(),
            dir, extent);
      } else if (p.type == "int") {
        // Constant-bound int params stay scalar args at run time but are
        // also foldable at compile time (map extents, unrolled bounds).
        sym.kind = Symbol::Kind::value;
        sym.value = kb_.i32_arg(p.name);
      } else {
        sym.kind = Symbol::Kind::value;
        sym.value = kb_.f32_arg(p.name);
      }
      declare(0, p.name, std::move(sym));
    }
    for (const ast::MapItem& m : fn_.maps) {
      if (find(m.name) == nullptr ||
          find(m.name)->kind != Symbol::Kind::ptr) {
        fail("map() clause names '" + m.name +
             "', which is not a pointer parameter");
      }
    }
  }

  // ---- constant folding ---------------------------------------------------
  std::optional<std::int64_t> fold(const Expr& e) const {
    if (const auto* lit = std::get_if<ast::IntLit>(&e.node)) {
      return lit->value;
    }
    if (const auto* ref = std::get_if<ast::VarRef>(&e.node)) {
      auto it = opts_.constants.find(ref->name);
      if (it != opts_.constants.end()) return it->second;
      for (auto sit = scopes_.rbegin(); sit != scopes_.rend(); ++sit) {
        auto found = sit->find(ref->name);
        if (found != sit->end() &&
            found->second.kind == Symbol::Kind::cint) {
          return found->second.cint;
        }
      }
      return std::nullopt;
    }
    // The source is untrusted: a result outside int64 is an error, never
    // undefined behavior (INT64_MIN / -1 traps on x86).
    std::int64_t r = 0;
    bool over = false;
    if (const auto* un = std::get_if<ast::Unary>(&e.node)) {
      if (un->op != '-') return std::nullopt;
      const auto v = fold(*un->operand);
      if (!v) return std::nullopt;
      over = __builtin_sub_overflow(std::int64_t{0}, *v, &r);
    } else if (const auto* bin = std::get_if<ast::Binary>(&e.node)) {
      const auto a = fold(*bin->lhs);
      const auto b = fold(*bin->rhs);
      if (!a || !b) return std::nullopt;
      if (bin->op == "+") {
        over = __builtin_add_overflow(*a, *b, &r);
      } else if (bin->op == "-") {
        over = __builtin_sub_overflow(*a, *b, &r);
      } else if (bin->op == "*") {
        over = __builtin_mul_overflow(*a, *b, &r);
      } else if (bin->op == "/" || bin->op == "%") {
        if (*b == 0) return std::nullopt;
        over = *a == std::numeric_limits<std::int64_t>::min() && *b == -1;
        if (!over) r = bin->op == "/" ? *a / *b : *a % *b;
      } else {
        return std::nullopt;
      }
    } else {
      return std::nullopt;
    }
    if (over) error(e.line, "constant expression overflows 64-bit integers");
    return r;
  }

  std::int64_t fold_or_fail(const Expr& e) const {
    const auto v = fold(e);
    HLSPROF_CHECK(v.has_value(),
                  strf("expression at line %d must be a compile-time "
                       "constant (provide -D style bindings via "
                       "LowerOptions::constants)",
                       e.line));
    return *v;
  }

  // ---- expressions ------------------------------------------------------------
  Val promote(Val v, bool want_float, int line) {
    if (want_float && v.type().is_int()) {
      return kb_.to_f32(v);
    }
    if (!want_float && v.type().is_float()) {
      error(line, "implicit float-to-int conversion; use an int expression");
    }
    return v;
  }

  Val lower_expr(const Expr& e) {
    // Fold first: unrolled induction variables and -D constants become
    // immediates rather than runtime arithmetic.
    if (const auto v = fold(e); v.has_value()) {
      if (*v != std::int32_t(*v)) {
        error(e.line, strf("integer constant %lld does not fit in a 32-bit "
                           "int",
                           static_cast<long long>(*v)));
      }
      return kb_.c32(*v);
    }

    if (const auto* lit = std::get_if<ast::FloatLit>(&e.node)) {
      return kb_.cf32(lit->value);
    }
    if (const auto* ref = std::get_if<ast::VarRef>(&e.node)) {
      Symbol* sym = find(ref->name);
      if (sym == nullptr) error(e.line, "unknown identifier '" + ref->name + "'");
      switch (sym->kind) {
        case Symbol::Kind::value: return sym->value;
        case Symbol::Kind::var: return sym->var.get();
        case Symbol::Kind::cint: return kb_.c32(sym->cint);
        default:
          error(e.line, "'" + ref->name + "' is not a scalar value");
      }
    }
    if (const auto* call = std::get_if<ast::Call>(&e.node)) {
      if (call->callee == "omp_get_thread_num") return kb_.thread_id();
      return kb_.num_threads_val();
    }
    if (const auto* idx = std::get_if<ast::Index>(&e.node)) {
      Symbol* sym = find(idx->array);
      if (sym == nullptr) error(e.line, "unknown array '" + idx->array + "'");
      Val index = lower_expr(*idx->index);
      if (!index.type().is_int()) {
        error(e.line, "array index must be an integer");
      }
      if (sym->kind == Symbol::Kind::ptr) return kb_.load(sym->ptr, index);
      if (sym->kind == Symbol::Kind::local) {
        return kb_.load_local(sym->local, index);
      }
      error(e.line, "'" + idx->array + "' is not an array");
    }
    if (const auto* un = std::get_if<ast::Unary>(&e.node)) {
      Val v = lower_expr(*un->operand);
      if (un->op == '-') return kb_.neg(v);
      return kb_.eq(promote(v, false, e.line), kb_.c32(0));
    }
    if (const auto* bin = std::get_if<ast::Binary>(&e.node)) {
      return lower_binary(*bin, e.line);
    }
    error(e.line, "unsupported expression");
  }

  Val lower_binary(const ast::Binary& bin, int line) {
    Val a = lower_expr(*bin.lhs);
    Val b = lower_expr(*bin.rhs);
    const bool any_float = a.type().is_float() || b.type().is_float();
    if (bin.op == "&&" || bin.op == "||") {
      Val ab = kb_.ne(promote(a, false, line), kb_.c32(0));
      Val bb = kb_.ne(promote(b, false, line), kb_.c32(0));
      return bin.op == "&&" ? kb_.band(ab, bb) : kb_.bor(ab, bb);
    }
    if (bin.op == "%") {
      if (any_float) error(line, "'%' requires integer operands");
      return kb_.rem(a, b);
    }
    a = promote(a, any_float, line);
    b = promote(b, any_float, line);
    if (bin.op == "+") return kb_.add(a, b);
    if (bin.op == "-") return kb_.sub(a, b);
    if (bin.op == "*") return kb_.mul(a, b);
    if (bin.op == "/") return kb_.div(a, b);
    if (bin.op == "<") return kb_.lt(a, b);
    if (bin.op == "<=") return kb_.le(a, b);
    if (bin.op == ">") return kb_.gt(a, b);
    if (bin.op == ">=") return kb_.ge(a, b);
    if (bin.op == "==") return kb_.eq(a, b);
    if (bin.op == "!=") return kb_.ne(a, b);
    error(line, "unsupported operator '" + bin.op + "'");
  }

  // ---- statements ----------------------------------------------------------------
  void lower_block(const std::vector<ast::StmtPtr>& stmts) {
    push_scope();
    for (const ast::StmtPtr& s : stmts) lower_stmt(*s);
    pop_scope();
  }

  void lower_stmt(const Stmt& s) {
    if (const auto* d = std::get_if<ast::DeclStmt>(&s.node)) {
      const bool is_float = d->type == "float";
      Val init = d->init != nullptr
                     ? lower_expr(*d->init)
                     : (is_float ? kb_.cf32(0.0) : kb_.c32(0));
      init = promote(init, is_float, s.line);
      Symbol sym;
      sym.kind = Symbol::Kind::var;
      sym.var = kb_.var_init(d->name, init);
      declare(s.line, d->name, std::move(sym));
      return;
    }
    if (const auto* d = std::get_if<ast::LocalArrayDecl>(&s.node)) {
      Symbol sym;
      sym.kind = Symbol::Kind::local;
      sym.local = kb_.local_array(
          d->name, d->type == "float" ? ir::Scalar::f32 : ir::Scalar::i32,
          fold_or_fail(*d->size));
      declare(s.line, d->name, std::move(sym));
      return;
    }
    if (const auto* a = std::get_if<ast::AssignStmt>(&s.node)) {
      Symbol* sym = find(a->name);
      if (sym == nullptr) error(s.line, "unknown identifier '" + a->name + "'");
      if (sym->kind != Symbol::Kind::var) {
        error(s.line, "'" + a->name + "' is not assignable");
      }
      Val v = promote(lower_expr(*a->value),
                      sym->var.type().is_float(), s.line);
      sym->var.set(v);
      return;
    }
    if (const auto* st = std::get_if<ast::StoreStmt>(&s.node)) {
      Symbol* sym = find(st->array);
      if (sym == nullptr) error(s.line, "unknown array '" + st->array + "'");
      Val index = lower_expr(*st->index);
      const bool is_float =
          sym->kind == Symbol::Kind::ptr
              ? sym->ptr.elem.is_float()
              : sym->kind == Symbol::Kind::local &&
                    sym->local.elem == ir::Scalar::f32;
      Val value = promote(lower_expr(*st->value), is_float, s.line);
      if (sym->kind == Symbol::Kind::ptr) {
        kb_.store(sym->ptr, index, value);
      } else if (sym->kind == Symbol::Kind::local) {
        kb_.store_local(sym->local, index, value);
      } else {
        error(s.line, "'" + st->array + "' is not an array");
      }
      return;
    }
    if (const auto* f = std::get_if<ast::ForStmt>(&s.node)) {
      lower_for(*f, s.line);
      return;
    }
    if (const auto* iff = std::get_if<ast::IfStmt>(&s.node)) {
      Val cond = promote(lower_expr(*iff->cond), false, s.line);
      kb_.if_then_else(
          cond, [&] { lower_block(iff->then_body); },
          [&] { lower_block(iff->else_body); });
      return;
    }
    if (const auto* crit = std::get_if<ast::CriticalStmt>(&s.node)) {
      // Unnamed OpenMP criticals all share one global lock.
      kb_.critical(0, [&] { lower_block(crit->body); });
      return;
    }
    if (std::holds_alternative<ast::BarrierStmt>(s.node)) {
      kb_.barrier();
      return;
    }
    error(s.line, "unsupported statement");
  }

  void lower_for(const ast::ForStmt& f, int line) {
    if (f.unroll > 1) {
      // Full unrolling: the IV becomes a compile-time constant in each
      // replica (how Figs. 4/5's `#pragma unroll` bodies reach the IR).
      const std::int64_t init = fold_or_fail(*f.init);
      const std::int64_t bound = fold_or_fail(*f.bound);
      const std::int64_t step = fold_or_fail(*f.step);
      HLSPROF_CHECK(step > 0, "unrolled loop step must be positive");
      const std::int64_t trips = std::max<std::int64_t>(
          0, (bound - init + step - 1) / step);
      HLSPROF_CHECK(trips <= 1024,
                    strf("refusing to unroll %lld iterations at line %d",
                         static_cast<long long>(trips), line));
      for (std::int64_t iv = init; iv < bound; iv += step) {
        push_scope();
        Symbol sym;
        sym.kind = Symbol::Kind::cint;
        sym.cint = iv;
        declare(line, f.induction, std::move(sym));
        for (const ast::StmtPtr& b : f.body) lower_stmt(*b);
        pop_scope();
      }
      return;
    }
    Val init = promote(lower_expr(*f.init), false, line);
    Val bound = promote(lower_expr(*f.bound), false, line);
    Val step = promote(lower_expr(*f.step), false, line);
    kb_.for_loop(
        f.induction, init, bound, step,
        [&](Val iv) {
          push_scope();
          Symbol sym;
          sym.kind = Symbol::Kind::value;
          sym.value = iv;
          declare(line, f.induction, std::move(sym));
          for (const ast::StmtPtr& b : f.body) lower_stmt(*b);
          pop_scope();
        },
        ir::LoopOpts{.pipeline = f.pipeline});
  }

  const KernelFn& fn_;
  const LowerOptions& opts_;
  KernelBuilder kb_;
  std::vector<std::map<std::string, Symbol>> scopes_;
};

}  // namespace

ir::Kernel lower(const KernelFn& fn, const LowerOptions& options) {
  telemetry::Span span(telemetry::Registry::global(), "frontend.lower",
                       "frontend");
  return Lowerer(fn, options).run();
}

ir::Kernel compile_source(const std::string& source,
                          const LowerOptions& options) {
  return lower(parse(source), options);
}

}  // namespace hlsprof::frontend
