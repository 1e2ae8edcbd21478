// A compiled design lowered to a flat thread program: the kernel's control
// tree becomes one array of micro-ops that every hardware thread steps
// through with a program counter. Lowering resolves what a tree walk would
// look up per executed op — operand and result storage, the scheduled
// start offset and latency, loop bounds, the external-memory-first order
// of concurrent branches — so executing an op is one dispatch on its
// opcode. Loops, concurrent regions and the fast-forward phase of a loop
// are held by index into per-thread arrays.
//
// Values live in a per-thread array of 8-byte words: a value of L lanes
// owns L consecutive words, integer lanes read `.i` and floating lanes
// `.f` (a value's type fixes which). Constants, thread ids and scalar
// arguments are written once when a thread is set up, and their ops
// vanish from the code.
//
// One Program is lowered per Simulator and shared, read-only, by all of
// its threads and runs.
#pragma once

#include <cstdint>
#include <vector>

#include "hls/design.hpp"
#include "sim/params.hpp"

namespace hlsprof::sim {

/// One lane of a value. A zeroed word reads as 0 and as +0.0 (members
/// are always accessed through the union, which GCC and Clang define).
union Word {
  std::int64_t i;
  double f;
};

/// Micro-op codes. Pure ops (everything before load_ext) only read and
/// write the thread's words and local arrays. The arithmetic ops come in
/// a one-lane form and a `v` form that loops over Instr::lanes; the other
/// pure ops take any lane count. Lowering resolves the opcode, so no lane
/// loop dispatches per lane; the f32 rounding is tested once per op.
enum class MOp : std::uint8_t {
  // Integer arithmetic; the result wraps to the type (see Instr::wrap).
  iadd, isub, imul, idiv, irem, iand, ior, ixor, ishl, iashr, ineg,
  icmp,  // Instr::sub holds the ir::Opcode of the comparison
  fcmp,
  // Floating point; the result rounds to f32 when Instr::f32.
  fadd, fsub, fmul, fdiv, fneg,
  // Lane loops of the above. Integer lanes run one at a time; FP lanes
  // of vfadd .. vfdiv run two at a time in one vector register.
  viadd, visub, vimul, vidiv, virem, viand, vior, vixor, vishl, viashr,
  vineg,
  vfadd, vfsub, vfmul, vfdiv, vfneg,
  fcount,  // an FP op of a timing-only run: counted, not computed
  select,
  cast_ii, cast_if, cast_fi, cast_ff,  // source kind, result kind
  copy,       // var_read / var_write: Instr::lanes words from a to dst
  broadcast,  // all lanes of dst from a[0]
  extract,    // dst = a[Instr::lane]
  insert,     // dst = a, then dst[Instr::lane] = b
  reduce_i, reduce_f,  // Instr::lane holds the source lane count
  load_local, store_local,
  nop,  // a constant with a datapath latency of its own
  // External memory (variable latency).
  load_ext, store_ext, preload,
  // Control.
  loop_enter,  // Instr::index: the loop
  loop_next,   // end of an iteration of loop Instr::index
  branch,      // to Instr::target unless word a is nonzero
  jump,        // to Instr::target
  acquire, release,  // Instr::index: the lock
  barrier,           // Instr::index: the barrier
  con_begin, con_next, con_end,  // Instr::index: the concurrent region
  halt,
};

struct Instr {
  MOp op = MOp::halt;
  std::uint8_t lanes = 1;   // result or stored lanes
  std::uint8_t sub = 0;     // see MOp; memory ops: the ir::Scalar moved
  bool f32 = false;         // FP ops: round the result through float;
                            // store_local/preload: the array holds f32
  bool is_float = false;    // load_local/store_local: the value's kind
  bool move = true;         // load_ext/store_ext: move data (functional
                            // run or integer type)
  std::uint8_t wrap = 0;    // integer ops: 32 for i32 results, else 0
  std::uint8_t lane = 0;    // extract/insert lane; reduce source lanes
  std::uint32_t dst = 0;    // result word
  std::uint32_t a = 0, b = 0, c = 0;  // operand words
  std::int32_t lat = 0;     // latency charged outside pipelined loops
  std::int32_t start = 0;   // start cycle inside the pipelined body
  std::int32_t index = 0;   // loop, concurrent region, lock or barrier;
                            // memory ops: the argument; local ops: array
  std::uint32_t target = 0;  // branch/jump target
  std::int32_t array = 0;    // preload: destination array
  std::uint32_t bytes = 0;   // load_ext/store_ext: request bytes;
                             // preload: bytes per source element
  std::uint32_t esz = 0;     // memory ops: bytes per element moved
  std::uint32_t stride = 0;  // load_ext/store_ext: bytes per argument
                             // element (the index's address stride)
  std::int64_t limit = 0;    // load_ext/store_ext: the largest index in
                             // bounds (mapped count minus lanes)
};

struct LoopDesc {
  const ir::LoopStmt* stmt = nullptr;  // names for diagnostics
  bool pipelined = false;
  /// The body is straight-line ops (no control flow): the fast path runs
  /// its iterations in a tight loop and may fast-forward them.
  bool simple = false;
  int ii = 1;
  int depth = 0;
  std::uint32_t var = 0;  // induction variable word
  std::uint32_t init = 0, bound = 0, step = 0;  // words
  std::uint32_t body = 0;  // pc of the first body op
  std::uint32_t next = 0;  // pc of the loop_next op
};

class Program {
 public:
  Program(const hls::Design& design, const SimParams& params);

  /// A word a thread writes once before it starts.
  struct Init {
    enum class Kind : std::uint8_t { word, thread_id, arg } kind = Kind::word;
    std::uint32_t slot = 0;
    Word value{};
    int arg = 0;         // Kind::arg
    bool is_float = false;  // Kind::arg
    bool f32 = false;       // Kind::arg
  };

  const hls::Design& design() const { return d_; }
  const std::vector<Instr>& code() const { return code_; }
  const std::vector<LoopDesc>& loops() const { return loops_; }
  const std::vector<Init>& inits() const { return inits_; }
  std::size_t num_concurrent() const { return num_concurrent_; }
  std::size_t num_words() const { return words_; }

 private:
  void lower_region(const ir::Region& r);
  void lower_op(ir::ValueId id);
  std::uint32_t slot(ir::ValueId v) const {
    return value_slot_[static_cast<std::size_t>(v)];
  }
  bool has_ext(const ir::Region& r) const;

  const hls::Design& d_;
  bool functional_;
  std::vector<Instr> code_;
  std::vector<LoopDesc> loops_;
  std::vector<Init> inits_;
  std::vector<std::uint32_t> value_slot_;  // per ValueId
  std::vector<std::uint32_t> var_slot_;    // per VarId
  std::size_t num_concurrent_ = 0;
  std::size_t words_ = 0;
};

}  // namespace hlsprof::sim
