#include "ir/verifier.hpp"

#include <vector>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace hlsprof::ir {

namespace {

class Verifier {
 public:
  explicit Verifier(const Kernel& k)
      : k_(k), defined_(k.ops.size(), false), placed_(k.ops.size(), 0) {}

  void run() {
    check_decls();
    visit_region(k_.body);
    // Every op must have been placed exactly once.
    for (std::size_t i = 0; i < placed_.size(); ++i) {
      if (placed_[i] != 1) {
        fail(strf("op %%%zu (%s) placed %d times (expected exactly once)", i,
                  opcode_name(k_.ops[i].opcode), placed_[i]));
      }
    }
  }

 private:
  void check_decls() {
    HLSPROF_CHECK(k_.num_threads >= 1 && k_.num_threads <= 64,
                  strf("num_threads %d out of supported range [1,64]",
                       k_.num_threads));
    for (const Arg& a : k_.args) {
      if (a.is_pointer) {
        HLSPROF_CHECK(a.count > 0, "pointer arg '" + a.name +
                                       "' must map at least one element");
      }
    }
    for (const LocalArray& a : k_.local_arrays) {
      HLSPROF_CHECK(a.size > 0,
                    "local array '" + a.name + "' must have positive size");
    }
  }

  void expect_defined(ValueId v, const char* what) {
    if (v < 0 || static_cast<std::size_t>(v) >= k_.ops.size()) {
      fail(strf("%s references out-of-range value %d", what, v));
    }
    if (!defined_[static_cast<std::size_t>(v)]) {
      fail(strf("%s uses value %%%d (%s) before/outside its definition", what,
                v, opcode_name(k_.ops[static_cast<std::size_t>(v)].opcode)));
    }
    if (!produces_value(k_.ops[static_cast<std::size_t>(v)].opcode)) {
      fail(strf("%s uses non-value op %%%d (%s) as an operand", what, v,
                opcode_name(k_.ops[static_cast<std::size_t>(v)].opcode)));
    }
  }

  Type type_of(ValueId v) const {
    return k_.ops[static_cast<std::size_t>(v)].type;
  }

  void check_op(ValueId id) {
    const Op& op = k_.op(id);
    const auto nops = op.operands.size();
    for (ValueId v : op.operands) expect_defined(v, opcode_name(op.opcode));

    auto expect_operands = [&](std::size_t n) {
      if (nops != n) {
        fail(strf("%s expects %zu operands, got %zu", opcode_name(op.opcode),
                  n, nops));
      }
    };

    switch (op.opcode) {
      case Opcode::const_int:
        // The simulator widens an i32 word only through arithmetic, so
        // an immediate past int32 would compare as one value and compute
        // as another.
        if (op.type.scalar == Scalar::i32 &&
            op.i_imm != std::int32_t(op.i_imm)) {
          fail(strf("const_int %%%d: immediate %lld does not fit in i32", id,
                    static_cast<long long>(op.i_imm)));
        }
        expect_operands(0);
        break;
      case Opcode::const_float:
      case Opcode::thread_id:
      case Opcode::num_threads:
        expect_operands(0);
        break;
      case Opcode::read_arg: {
        expect_operands(0);
        check_arg(op.arg, /*want_pointer=*/false, "read_arg");
        break;
      }
      case Opcode::add:
      case Opcode::sub:
      case Opcode::mul:
      case Opcode::divs:
      case Opcode::rems:
      case Opcode::and_:
      case Opcode::or_:
      case Opcode::xor_:
      case Opcode::shl:
      case Opcode::ashr: {
        expect_operands(2);
        if (type_of(op.operands[0]) != op.type ||
            type_of(op.operands[1]) != op.type) {
          fail(strf("%s operand/result type mismatch", opcode_name(op.opcode)));
        }
        if (op.type.is_float()) {
          fail(strf("%s applied to floating-point type",
                    opcode_name(op.opcode)));
        }
        break;
      }
      case Opcode::fadd:
      case Opcode::fsub:
      case Opcode::fmul:
      case Opcode::fdiv: {
        expect_operands(2);
        if (!op.type.is_float()) {
          fail(strf("%s requires a floating-point type",
                    opcode_name(op.opcode)));
        }
        if (type_of(op.operands[0]) != op.type ||
            type_of(op.operands[1]) != op.type) {
          fail(strf("%s operand/result type mismatch", opcode_name(op.opcode)));
        }
        break;
      }
      case Opcode::neg:
      case Opcode::fneg:
        expect_operands(1);
        break;
      case Opcode::cmp_lt:
      case Opcode::cmp_le:
      case Opcode::cmp_gt:
      case Opcode::cmp_ge:
      case Opcode::cmp_eq:
      case Opcode::cmp_ne:
        expect_operands(2);
        if (op.type != Type::i32()) fail("comparison result must be i32");
        break;
      case Opcode::select:
        expect_operands(3);
        if (type_of(op.operands[0]) != Type::i32()) {
          fail("select condition must be scalar i32");
        }
        break;
      case Opcode::cast:
        expect_operands(1);
        if (type_of(op.operands[0]).lanes != op.type.lanes) {
          fail("cast cannot change lane count");
        }
        break;
      case Opcode::broadcast:
        expect_operands(1);
        if (type_of(op.operands[0]).lanes != 1) {
          fail("broadcast source must be scalar");
        }
        break;
      case Opcode::extract:
        expect_operands(1);
        if (op.i_imm < 0 || op.i_imm >= type_of(op.operands[0]).lanes) {
          fail("extract lane out of range");
        }
        break;
      case Opcode::insert:
        expect_operands(2);
        if (op.i_imm < 0 || op.i_imm >= op.type.lanes) {
          fail("insert lane out of range");
        }
        break;
      case Opcode::reduce_add:
        expect_operands(1);
        if (op.type.lanes != 1) fail("reduce_add result must be scalar");
        break;
      case Opcode::load_ext:
        expect_operands(1);
        check_arg(op.arg, /*want_pointer=*/true, "load_ext");
        if (!type_of(op.operands[0]).is_int()) {
          fail("load_ext index must be integer");
        }
        break;
      case Opcode::store_ext:
        expect_operands(2);
        check_arg(op.arg, /*want_pointer=*/true, "store_ext");
        break;
      case Opcode::load_local:
        expect_operands(1);
        check_array(op.array, "load_local");
        break;
      case Opcode::preload:
        expect_operands(3);
        check_arg(op.arg, /*want_pointer=*/true, "preload");
        check_array(op.array, "preload");
        for (ValueId v : op.operands) {
          if (!type_of(v).is_int() || type_of(v).lanes != 1) {
            fail("preload operands must be scalar integers");
          }
        }
        break;
      case Opcode::store_local:
        expect_operands(2);
        check_array(op.array, "store_local");
        break;
      case Opcode::var_read:
        expect_operands(0);
        check_var(op.var, op.type, "var_read");
        break;
      case Opcode::var_write:
        expect_operands(1);
        check_var(op.var, op.type, "var_write");
        break;
    }
    defined_[static_cast<std::size_t>(id)] = true;
    placed_[static_cast<std::size_t>(id)]++;
  }

  void check_arg(ArgId a, bool want_pointer, const char* what) {
    if (a < 0 || static_cast<std::size_t>(a) >= k_.args.size()) {
      fail(strf("%s references out-of-range arg %d", what, a));
    }
    if (k_.args[static_cast<std::size_t>(a)].is_pointer != want_pointer) {
      fail(strf("%s arg '%s' has wrong pointer-ness", what,
                k_.args[static_cast<std::size_t>(a)].name.c_str()));
    }
  }

  void check_var(VarId v, Type t, const char* what) {
    if (v < 0 || static_cast<std::size_t>(v) >= k_.vars.size()) {
      fail(strf("%s references out-of-range var %d", what, v));
    }
    if (k_.vars[static_cast<std::size_t>(v)].type != t) {
      fail(strf("%s type mismatch for var '%s'", what,
                k_.vars[static_cast<std::size_t>(v)].name.c_str()));
    }
  }

  void check_array(LocalArrayId a, const char* what) {
    if (a < 0 || static_cast<std::size_t>(a) >= k_.local_arrays.size()) {
      fail(strf("%s references out-of-range local array %d", what, a));
    }
  }

  void visit_region(const Region& r) {
    // Values defined in this region go out of scope when it ends (they are
    // per-activation pipeline registers). Record and roll back.
    std::vector<ValueId> scope;
    for (const Stmt& s : r.stmts) {
      if (const auto* os = std::get_if<OpStmt>(&s)) {
        check_op(os->op);
        scope.push_back(os->op);
      } else if (const auto* loop = std::get_if<LoopStmt>(&s)) {
        expect_defined(loop->init, "loop init");
        expect_defined(loop->bound, "loop bound");
        expect_defined(loop->step, "loop step");
        check_var(loop->induction, type_of(loop->init), "loop induction");
        visit_scoped(*loop->body, scope);
      } else if (const auto* iff = std::get_if<IfStmt>(&s)) {
        expect_defined(iff->cond, "if condition");
        visit_scoped(*iff->then_body, scope);
        visit_scoped(*iff->else_body, scope);
      } else if (const auto* crit = std::get_if<CriticalStmt>(&s)) {
        if (crit->lock_id < 0 || crit->lock_id >= k_.num_locks) {
          fail("critical lock id out of range");
        }
        visit_scoped(*crit->body, scope);
      } else if (const auto* con = std::get_if<ConcurrentStmt>(&s)) {
        if (con->branches.size() < 2) {
          fail("concurrent stmt needs at least 2 branches");
        }
        for (const auto& b : con->branches) visit_scoped(*b, scope);
      }
      // BarrierStmt needs no checking beyond existing.
    }
    for (ValueId v : scope) defined_[static_cast<std::size_t>(v)] = false;
  }

  /// Visit a nested region; values it defines are rolled back on exit, but
  /// values defined so far in the parent remain visible inside.
  void visit_scoped(const Region& r, std::vector<ValueId>& parent_scope) {
    (void)parent_scope;
    visit_region(r);
  }

  const Kernel& k_;
  std::vector<bool> defined_;
  std::vector<int> placed_;
};

}  // namespace

void verify(const Kernel& k) { Verifier(k).run(); }

}  // namespace hlsprof::ir
