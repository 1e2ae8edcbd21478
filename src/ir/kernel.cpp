#include "ir/kernel.hpp"

#include "common/error.hpp"

namespace hlsprof::ir {

const Op& Kernel::op(ValueId v) const {
  HLSPROF_CHECK(v >= 0 && static_cast<std::size_t>(v) < ops.size(),
                "ValueId out of range");
  return ops[static_cast<std::size_t>(v)];
}

void for_each_region(const Region& r,
                     const std::function<void(const Region&)>& fn) {
  fn(r);
  for (const Stmt& s : r.stmts) {
    if (const auto* loop = std::get_if<LoopStmt>(&s)) {
      for_each_region(*loop->body, fn);
    } else if (const auto* iff = std::get_if<IfStmt>(&s)) {
      for_each_region(*iff->then_body, fn);
      for_each_region(*iff->else_body, fn);
    } else if (const auto* crit = std::get_if<CriticalStmt>(&s)) {
      for_each_region(*crit->body, fn);
    } else if (const auto* con = std::get_if<ConcurrentStmt>(&s)) {
      for (const auto& b : con->branches) for_each_region(*b, fn);
    }
  }
}

}  // namespace hlsprof::ir
