#include "frontend/parser.hpp"

#include <utility>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "frontend/lexer.hpp"
#include "telemetry/telemetry.hpp"

namespace hlsprof::frontend {

namespace ast {
namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> toks) : toks_(std::move(toks)) {}

  KernelFn run() {
    KernelFn fn = parse_signature();
    expect_punct("{");
    // The body must start with the target-parallel pragma.
    const Token& p = peek();
    if (p.kind != Tok::pragma) {
      error("expected '#pragma omp target parallel ...' at function start");
    }
    parse_target_pragma(take(), fn);
    expect_punct("{");
    fn.body = parse_stmts_until("}");
    expect_punct("}");  // target region
    expect_punct("}");  // function
    if (peek().kind != Tok::end_of_file) {
      error("trailing tokens after the kernel function");
    }
    return fn;
  }

 private:
  // ---- token helpers ----------------------------------------------------
  const Token& peek(std::size_t ahead = 0) const {
    const std::size_t i = std::min(pos_ + ahead, toks_.size() - 1);
    return toks_[i];
  }
  Token take() { return toks_[std::min(pos_++, toks_.size() - 1)]; }
  bool at_punct(const std::string& p) const {
    return peek().kind == Tok::punct && peek().text == p;
  }
  bool accept_punct(const std::string& p) {
    if (!at_punct(p)) return false;
    ++pos_;
    return true;
  }
  void expect_punct(const std::string& p) {
    if (!accept_punct(p)) {
      error("expected '" + p + "', got '" + peek().text + "'");
    }
  }
  std::string expect_identifier(const char* what) {
    if (peek().kind != Tok::identifier) {
      error(std::string("expected ") + what);
    }
    return take().text;
  }
  [[noreturn]] void error(const std::string& msg) const {
    fail(strf("parse error at line %d: %s", peek().line, msg.c_str()));
  }

  // ---- signature & pragmas -----------------------------------------------
  KernelFn parse_signature() {
    KernelFn fn;
    if (expect_identifier("'void'") != "void") {
      error("kernel functions must return void");
    }
    fn.name = expect_identifier("function name");
    expect_punct("(");
    if (!at_punct(")")) {
      do {
        Param p;
        p.type = expect_identifier("parameter type");
        if (p.type != "int" && p.type != "float") {
          error("unsupported parameter type '" + p.type + "'");
        }
        if (accept_punct("*")) p.type += "*";
        p.name = expect_identifier("parameter name");
        fn.params.push_back(std::move(p));
      } while (accept_punct(","));
    }
    expect_punct(")");
    return fn;
  }

  /// A parser over a pragma's text, which arrives as one token: re-lexed,
  /// with every token on the pragma's source line.
  static Parser pragma_parser(const Token& pragma) {
    std::vector<Token> toks = lex(pragma.text);
    for (Token& t : toks) t.line = pragma.line;
    return Parser(std::move(toks));
  }

  /// Parse the clauses of `omp target parallel map(...) num_threads(N)`.
  void parse_target_pragma(const Token& pragma, KernelFn& fn) {
    Parser sub = pragma_parser(pragma);
    if (sub.expect_identifier("'omp'") != "omp" ||
        sub.expect_identifier("'target'") != "target" ||
        sub.expect_identifier("'parallel'") != "parallel") {
      error("expected '#pragma omp target parallel'");
    }
    while (sub.peek().kind == Tok::identifier) {
      const std::string clause = sub.take().text;
      if (clause == "map") {
        sub.expect_punct("(");
        const std::string dir = sub.expect_identifier("map direction");
        if (dir != "to" && dir != "from" && dir != "tofrom" &&
            dir != "alloc") {
          sub.error("unknown map direction '" + dir + "'");
        }
        sub.expect_punct(":");
        do {
          MapItem item;
          item.direction = dir;
          item.name = sub.expect_identifier("mapped array name");
          sub.expect_punct("[");
          // OpenMP array section [lower:length]; lower must be 0.
          const Token lower = sub.take();
          if (lower.kind != Tok::int_literal || lower.int_value != 0) {
            sub.error("array sections must start at 0");
          }
          sub.expect_punct(":");
          item.extent = sub.parse_expr();
          sub.expect_punct("]");
          fn.maps.push_back(std::move(item));
        } while (sub.accept_punct(","));
        sub.expect_punct(")");
      } else if (clause == "num_threads") {
        sub.expect_punct("(");
        if (sub.peek().kind != Tok::int_literal) {
          sub.error("num_threads expects an integer literal");
        }
        fn.num_threads = int(sub.take().int_value);
        sub.expect_punct(")");
      } else {
        sub.error("unsupported clause '" + clause + "'");
      }
    }
  }

  // ---- statements -----------------------------------------------------------
  std::vector<StmtPtr> parse_stmts_until(const std::string& closer) {
    std::vector<StmtPtr> out;
    int pending_unroll = 1;
    bool pending_nopipeline = false;
    while (!at_punct(closer)) {
      if (peek().kind == Tok::end_of_file) error("unexpected end of file");
      if (peek().kind == Tok::pragma) {
        const Token pragma = take();
        const std::string& text = pragma.text;
        if (starts_with(text, "unroll")) {
          Parser sub = pragma_parser(pragma);
          (void)sub.take();  // 'unroll'
          if (sub.peek().kind != Tok::int_literal) {
            error("'#pragma unroll' expects an integer factor");
          }
          pending_unroll = int(sub.take().int_value);
          continue;
        }
        if (text == "nymble nopipeline") {
          pending_nopipeline = true;
          continue;
        }
        if (text == "omp barrier") {
          auto s = std::make_unique<Stmt>();
          s->line = peek().line;
          s->node = BarrierStmt{};
          out.push_back(std::move(s));
          continue;
        }
        if (text == "omp critical") {
          auto s = std::make_unique<Stmt>();
          s->line = peek().line;
          CriticalStmt crit;
          expect_punct("{");
          crit.body = parse_stmts_until("}");
          expect_punct("}");
          s->node = std::move(crit);
          out.push_back(std::move(s));
          continue;
        }
        error("unsupported pragma '#pragma " + text + "'");
      }
      StmtPtr s = parse_stmt();
      if (auto* f = std::get_if<ForStmt>(&s->node)) {
        f->unroll = pending_unroll;
        if (pending_nopipeline) f->pipeline = false;
      } else if (pending_unroll != 1 || pending_nopipeline) {
        error("loop pragma must be followed by a for loop");
      }
      pending_unroll = 1;
      pending_nopipeline = false;
      out.push_back(std::move(s));
    }
    return out;
  }

  StmtPtr parse_stmt() {
    auto s = std::make_unique<Stmt>();
    s->line = peek().line;

    if (peek().kind == Tok::identifier &&
        (peek().text == "int" || peek().text == "float")) {
      const std::string type = take().text;
      const std::string name = expect_identifier("variable name");
      if (accept_punct("[")) {
        LocalArrayDecl d;
        d.type = type;
        d.name = name;
        d.size = parse_expr();
        expect_punct("]");
        expect_punct(";");
        s->node = std::move(d);
        return s;
      }
      DeclStmt d;
      d.type = type;
      d.name = name;
      if (accept_punct("=")) d.init = parse_expr();
      expect_punct(";");
      s->node = std::move(d);
      return s;
    }

    if (peek().kind == Tok::identifier && peek().text == "for") {
      return parse_for(std::move(s));
    }
    if (peek().kind == Tok::identifier && peek().text == "if") {
      (void)take();
      IfStmt iff;
      expect_punct("(");
      iff.cond = parse_expr();
      expect_punct(")");
      expect_punct("{");
      iff.then_body = parse_stmts_until("}");
      expect_punct("}");
      if (peek().kind == Tok::identifier && peek().text == "else") {
        (void)take();
        expect_punct("{");
        iff.else_body = parse_stmts_until("}");
        expect_punct("}");
      }
      s->node = std::move(iff);
      return s;
    }

    // Assignment or store.
    const std::string name = expect_identifier("statement");
    if (accept_punct("[")) {
      StoreStmt st;
      st.array = name;
      st.index = parse_expr();
      expect_punct("]");
      st.value = parse_assign_rhs([&] {
        // Desugar `A[i] op= e` into `A[i] = A[i] op e`.
        auto load = std::make_unique<Expr>();
        Index idx;
        idx.array = name;
        idx.index = clone(*st.index);
        load->node = std::move(idx);
        return load;
      });
      expect_punct(";");
      s->node = std::move(st);
      return s;
    }
    AssignStmt a;
    a.name = name;
    a.value = parse_assign_rhs([&] {
      auto ref = std::make_unique<Expr>();
      ref->node = VarRef{name};
      return ref;
    });
    expect_punct(";");
    s->node = std::move(a);
    return s;
  }

  /// After the lvalue: parse `= e`, `op= e`, `++`, or `--`, returning the
  /// full RHS expression (with `make_lvalue_read()` providing the read for
  /// the desugared forms).
  template <typename MakeRead>
  ExprPtr parse_assign_rhs(MakeRead make_lvalue_read) {
    if (accept_punct("=")) return parse_expr();
    for (const char* op : {"+=", "-=", "*=", "/="}) {
      if (accept_punct(op)) {
        auto bin = std::make_unique<Expr>();
        Binary b;
        b.op = std::string(1, op[0]);
        b.lhs = make_lvalue_read();
        b.rhs = parse_expr();
        bin->node = std::move(b);
        return bin;
      }
    }
    for (const char* op : {"++", "--"}) {
      if (accept_punct(op)) {
        auto one = std::make_unique<Expr>();
        one->node = IntLit{1};
        auto bin = std::make_unique<Expr>();
        Binary b;
        b.op = op[0] == '+' ? "+" : "-";
        b.lhs = make_lvalue_read();
        b.rhs = std::move(one);
        bin->node = std::move(b);
        return bin;
      }
    }
    error("expected assignment operator");
  }

  StmtPtr parse_for(StmtPtr s) {
    (void)take();  // 'for'
    ForStmt f;
    expect_punct("(");
    if (expect_identifier("'int'") != "int") {
      error("for-loop induction must be declared 'int'");
    }
    f.induction = expect_identifier("induction variable");
    expect_punct("=");
    f.init = parse_expr();
    expect_punct(";");
    const std::string iv2 = expect_identifier("induction variable");
    if (iv2 != f.induction) error("for-loop condition must test the IV");
    ExprPtr bound;
    if (accept_punct("<")) {
      bound = parse_expr();
    } else if (accept_punct("<=")) {
      // i <= e  ->  i < e + 1
      auto one = std::make_unique<Expr>();
      one->node = IntLit{1};
      auto plus = std::make_unique<Expr>();
      Binary b;
      b.op = "+";
      b.lhs = parse_expr();
      b.rhs = std::move(one);
      plus->line = b.lhs->line;
      plus->node = std::move(b);
      bound = std::move(plus);
    } else {
      error("for-loop condition must be '<' or '<='");
    }
    f.bound = std::move(bound);
    expect_punct(";");
    const std::string iv3 = expect_identifier("induction variable");
    if (iv3 != f.induction) error("for-loop step must update the IV");
    if (accept_punct("++")) {
      auto one = std::make_unique<Expr>();
      one->node = IntLit{1};
      f.step = std::move(one);
    } else if (accept_punct("+=")) {
      f.step = parse_expr();
    } else if (accept_punct("=")) {
      // i = i + e
      const std::string iv4 = expect_identifier("induction variable");
      if (iv4 != f.induction) error("for-loop step must be 'i = i + e'");
      expect_punct("+");
      f.step = parse_expr();
    } else {
      error("for-loop step must be 'i++', 'i += e', or 'i = i + e'");
    }
    expect_punct(")");
    expect_punct("{");
    f.body = parse_stmts_until("}");
    expect_punct("}");
    s->node = std::move(f);
    return s;
  }

  // ---- expressions: precedence climbing ------------------------------------
  ExprPtr parse_expr() { return parse_or(); }

  ExprPtr parse_or() {
    ExprPtr lhs = parse_and();
    while (at_punct("||")) {
      (void)take();
      lhs = binary("||", std::move(lhs), parse_and());
    }
    return lhs;
  }
  ExprPtr parse_and() {
    ExprPtr lhs = parse_cmp();
    while (at_punct("&&")) {
      (void)take();
      lhs = binary("&&", std::move(lhs), parse_cmp());
    }
    return lhs;
  }
  ExprPtr parse_cmp() {
    ExprPtr lhs = parse_add();
    for (const char* op : {"==", "!=", "<=", ">=", "<", ">"}) {
      if (at_punct(op)) {
        (void)take();
        return binary(op, std::move(lhs), parse_add());
      }
    }
    return lhs;
  }
  ExprPtr parse_add() {
    ExprPtr lhs = parse_mul();
    while (at_punct("+") || at_punct("-")) {
      const std::string op = take().text;
      lhs = binary(op, std::move(lhs), parse_mul());
    }
    return lhs;
  }
  ExprPtr parse_mul() {
    ExprPtr lhs = parse_unary();
    while (at_punct("*") || at_punct("/") || at_punct("%")) {
      const std::string op = take().text;
      lhs = binary(op, std::move(lhs), parse_unary());
    }
    return lhs;
  }
  ExprPtr parse_unary() {
    const int line = peek().line;
    if (accept_punct("-")) {
      auto e = std::make_unique<Expr>();
      e->line = line;
      Unary u;
      u.op = '-';
      u.operand = parse_unary();
      e->node = std::move(u);
      return e;
    }
    if (accept_punct("!")) {
      auto e = std::make_unique<Expr>();
      e->line = line;
      Unary u;
      u.op = '!';
      u.operand = parse_unary();
      e->node = std::move(u);
      return e;
    }
    return parse_primary();
  }
  ExprPtr parse_primary() {
    auto e = std::make_unique<Expr>();
    e->line = peek().line;
    if (accept_punct("(")) {
      e = parse_expr();
      expect_punct(")");
      return e;
    }
    if (peek().kind == Tok::int_literal) {
      e->node = IntLit{take().int_value};
      return e;
    }
    if (peek().kind == Tok::float_literal) {
      e->node = FloatLit{take().float_value};
      return e;
    }
    if (peek().kind == Tok::identifier) {
      const std::string name = take().text;
      if (accept_punct("(")) {
        expect_punct(")");
        if (name != "omp_get_thread_num" && name != "omp_get_num_threads") {
          error("unsupported call '" + name + "'");
        }
        e->node = Call{name};
        return e;
      }
      if (accept_punct("[")) {
        Index idx;
        idx.array = name;
        idx.index = parse_expr();
        expect_punct("]");
        e->node = std::move(idx);
        return e;
      }
      e->node = VarRef{name};
      return e;
    }
    error("expected expression, got '" + peek().text + "'");
  }

  static ExprPtr binary(const std::string& op, ExprPtr a, ExprPtr b) {
    auto e = std::make_unique<Expr>();
    e->line = a->line;
    Binary bin;
    bin.op = op;
    bin.lhs = std::move(a);
    bin.rhs = std::move(b);
    e->node = std::move(bin);
    return e;
  }

 public:
  /// Deep copy (needed to desugar `A[i] += e`).
  static ExprPtr clone(const Expr& e) {
    auto out = std::make_unique<Expr>();
    out->line = e.line;
    std::visit(
        [&](const auto& n) {
          using T = std::decay_t<decltype(n)>;
          if constexpr (std::is_same_v<T, Index>) {
            Index copy;
            copy.array = n.array;
            copy.index = clone(*n.index);
            out->node = std::move(copy);
          } else if constexpr (std::is_same_v<T, Unary>) {
            Unary copy;
            copy.op = n.op;
            copy.operand = clone(*n.operand);
            out->node = std::move(copy);
          } else if constexpr (std::is_same_v<T, Binary>) {
            Binary copy;
            copy.op = n.op;
            copy.lhs = clone(*n.lhs);
            copy.rhs = clone(*n.rhs);
            out->node = std::move(copy);
          } else {
            out->node = n;
          }
        },
        e.node);
    return out;
  }

 private:
  std::vector<Token> toks_;
  std::size_t pos_ = 0;
};

}  // namespace
}  // namespace ast

ast::KernelFn parse(const std::string& source) {
  telemetry::Span span(telemetry::Registry::global(), "frontend.parse",
                       "frontend");
  return ast::Parser(lex(source)).run();
}

}  // namespace hlsprof::frontend
