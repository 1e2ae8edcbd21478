// Kernel structure: a structured control tree (regions of statements) over
// an op arena. This corresponds to the (loop-nested) dataflow graphs Nymble
// builds per target region: inner loops appear as single variable-latency
// nodes in the surrounding graph (paper §III-B).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "ir/op.hpp"
#include "ir/type.hpp"

namespace hlsprof::ir {

/// OpenMP map() clause direction for pointer arguments (paper §III-A).
enum class MapDir : std::uint8_t { to, from, tofrom, alloc };

/// Kernel argument: either a scalar passed by value or a pointer into
/// external (DRAM) memory with an OpenMP-style map clause.
struct Arg {
  std::string name;
  Type elem_type;        // scalar args: value type; pointers: pointee type
  bool is_pointer = false;
  MapDir map = MapDir::tofrom;
  std::int64_t count = 0;  // pointer args: number of elements mapped
};

/// Per-thread local (BRAM-backed) array declaration.
struct LocalArray {
  std::string name;
  Scalar elem = Scalar::f32;
  std::int64_t size = 0;  // elements
  int ports = 2;          // BRAM read/write ports (dual-ported by default)
};

/// Mutable per-thread scalar register.
struct Var {
  std::string name;
  Type type;
};

struct Region;

/// Counting loop: `for (var = init; var < bound; var += step)`. Bounds are
/// values computed in the enclosing region. `pipeline` marks candidate
/// loops for pipelined scheduling (innermost loops); HLS decides the final
/// mode. `trip_hint` optionally carries a static trip count for reporting.
struct LoopStmt {
  std::string name;
  VarId induction = -1;
  ValueId init = kNoValue;
  ValueId bound = kNoValue;
  ValueId step = kNoValue;
  std::unique_ptr<Region> body;
  bool pipeline = true;
  std::int64_t trip_hint = -1;
  int id = -1;  // dense loop index assigned by the builder
};

/// Two-sided conditional, realized as predicated execution in hardware.
struct IfStmt {
  ValueId cond = kNoValue;  // scalar i32, nonzero = taken
  std::unique_ptr<Region> then_body;
  std::unique_ptr<Region> else_body;  // may be empty region
};

/// OpenMP `critical` section guarded by the hardware semaphore (paper
/// §III-A / Fig. 2): entering spins until the lock is granted.
struct CriticalStmt {
  int lock_id = 0;
  std::unique_ptr<Region> body;
};

/// Branches that the datapath executes concurrently (independent inner
/// loops scheduled in the same stage — how the double-buffered GEMM
/// overlaps prefetch with compute, paper Fig. 9). The builder records
/// whether independence was asserted by the user (like a vendor
/// `dependence ... false` pragma); the HLS verifier additionally checks
/// that at most one branch touches external memory (all external accesses
/// multiplex onto one read/one write port per thread, paper §IV-B2c).
struct ConcurrentStmt {
  std::vector<std::unique_ptr<Region>> branches;
  bool user_asserted_independent = false;
};

/// OpenMP thread barrier.
struct BarrierStmt {
  int barrier_id = 0;
};

/// An op placed in program order (its ValueId doubles as the arena index).
struct OpStmt {
  ValueId op = kNoValue;
};

using Stmt = std::variant<OpStmt, LoopStmt, IfStmt, CriticalStmt,
                          ConcurrentStmt, BarrierStmt>;

struct Region {
  std::vector<Stmt> stmts;
};

/// A compiled target region: what `#pragma omp target parallel` hands to
/// Nymble. One kernel per application (paper §III-A limitation).
struct Kernel {
  std::string name;
  int num_threads = 1;  // OpenMP num_threads() clause

  std::vector<Op> ops;  // arena; ValueId indexes into this
  std::vector<Arg> args;
  std::vector<Var> vars;
  std::vector<LocalArray> local_arrays;
  int num_loops = 0;  // dense loop-id space [0, num_loops)
  int num_locks = 1;  // critical-section lock ids in [0, num_locks)

  Region body;

  const Op& op(ValueId v) const;
};

/// Walk `r` and every region nested in it depth-first, invoking `fn` on
/// each region. Used by the HLS compiler and the simulator lowering.
void for_each_region(const Region& r,
                     const std::function<void(const Region&)>& fn);

}  // namespace hlsprof::ir
