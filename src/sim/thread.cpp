#include "sim/thread.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace hlsprof::sim {

using ir::Opcode;

namespace {

/// Truncate an integer result to its type: `shift` is 32 for i32 (wrap
/// like int32_t), 0 for i64.
inline std::int64_t wrap(std::int64_t x, unsigned shift) {
  return std::int64_t(std::uint64_t(x) << shift) >> shift;
}

/// Round `x` as if stored in f32 when `f32`.
inline double rnd(double x, bool f32) { return f32 ? double(float(x)) : x; }

/// The same with the choice made at compile time, for lane loops.
template <bool F32>
inline double rnd(double x) {
  if constexpr (F32) return double(float(x));
  return x;
}

/// Runs `body(std::true_type{})` or `body(std::false_type{})` as `f32` is
/// set, so a lane loop inside `body` tests the flag once, not per lane.
template <class Body>
[[gnu::always_inline]] inline void on_f32(bool f32, Body body) {
  if (f32) {
    body(std::true_type{});
  } else {
    body(std::false_type{});
  }
}

/// Two FP lanes in one vector register (SSE2 on x86-64). IEEE + - * / and
/// the double -> float -> double round trip give the same bits packed as
/// one lane at a time.
using F64x2 = double __attribute__((vector_size(16)));
using F32x2 = float __attribute__((vector_size(8)));

/// dst = op(a, b) over in.lanes FP lanes, rounded through f32 when
/// in.f32: two lanes at a time, then a one-lane tail for an odd count.
/// `op` is applied to F64x2 pairs and to doubles. Words move through
/// memcpy, which keeps the union's aliasing defined.
template <class Op>
[[gnu::always_inline]] inline void fp_lanes(Word* w, const Instr& in, Op op) {
  on_f32(in.f32, [&](auto f32) {
    Word* d = w + in.dst;
    const Word* x = w + in.a;
    const Word* y = w + in.b;
    const int n = in.lanes;
    int l = 0;
    for (; l + 2 <= n; l += 2) {
      F64x2 a;
      F64x2 b;
      std::memcpy(&a, x + l, sizeof a);
      std::memcpy(&b, y + l, sizeof b);
      F64x2 r = op(a, b);
      if constexpr (f32) {
        r = __builtin_convertvector(__builtin_convertvector(r, F32x2), F64x2);
      }
      std::memcpy(d + l, &r, sizeof r);
    }
    if (l < n) d[l].f = rnd<f32>(op(x[l].f, y[l].f));
  });
}

/// dst = op(a, b) over in.lanes integer lanes, wrapped to the type. No
/// packed form: SSE2 has no 64-bit lane multiply.
template <class Op>
[[gnu::always_inline]] inline void int_lanes(Word* w, const Instr& in,
                                             Op op) {
  for (int l = 0; l < in.lanes; ++l) {
    w[in.dst + l].i = wrap(op(w[in.a + l].i, w[in.b + l].i), in.wrap);
  }
}

}  // namespace

void cycle_limit_exceeded(const SimParams& params, thread_id_t tid,
                          cycle_t t) {
  fail(strf("simulation exceeded max_cycles (livelock guard): thread %d "
            "reached cycle %llu, past the limit of %llu",
            int(tid), (unsigned long long)t,
            (unsigned long long)params.max_cycles));
}

// Inlined into both executors (resume and the batched loop).
[[gnu::always_inline]] inline void Thread::eval(const Instr& in) {
  Word* w = w_;
  const int lanes = in.lanes;
  switch (in.op) {
    case MOp::iadd:
      w[in.dst].i = wrap(w[in.a].i + w[in.b].i, in.wrap);
      ++acc_int_;
      break;
    case MOp::isub:
      w[in.dst].i = wrap(w[in.a].i - w[in.b].i, in.wrap);
      ++acc_int_;
      break;
    case MOp::imul:
      w[in.dst].i = wrap(w[in.a].i * w[in.b].i, in.wrap);
      ++acc_int_;
      break;
    case MOp::idiv:
      HLSPROF_CHECK(w[in.b].i != 0, "integer division by zero in kernel");
      w[in.dst].i = wrap(w[in.a].i / w[in.b].i, in.wrap);
      ++acc_int_;
      break;
    case MOp::irem:
      HLSPROF_CHECK(w[in.b].i != 0, "integer remainder by zero in kernel");
      w[in.dst].i = wrap(w[in.a].i % w[in.b].i, in.wrap);
      ++acc_int_;
      break;
    case MOp::iand:
      w[in.dst].i = wrap(w[in.a].i & w[in.b].i, in.wrap);
      ++acc_int_;
      break;
    case MOp::ior:
      w[in.dst].i = wrap(w[in.a].i | w[in.b].i, in.wrap);
      ++acc_int_;
      break;
    case MOp::ixor:
      w[in.dst].i = wrap(w[in.a].i ^ w[in.b].i, in.wrap);
      ++acc_int_;
      break;
    case MOp::ishl:
      w[in.dst].i = wrap(w[in.a].i << (w[in.b].i & 63), in.wrap);
      ++acc_int_;
      break;
    case MOp::iashr:
      w[in.dst].i = wrap(w[in.a].i >> (w[in.b].i & 63), in.wrap);
      ++acc_int_;
      break;
    case MOp::ineg: w[in.dst].i = wrap(-w[in.a].i, in.wrap); ++acc_int_; break;
    case MOp::viadd:
      int_lanes(w, in, [](std::int64_t x, std::int64_t y) { return x + y; });
      acc_int_ += lanes;
      break;
    case MOp::visub:
      int_lanes(w, in, [](std::int64_t x, std::int64_t y) { return x - y; });
      acc_int_ += lanes;
      break;
    case MOp::vimul:
      int_lanes(w, in, [](std::int64_t x, std::int64_t y) { return x * y; });
      acc_int_ += lanes;
      break;
    case MOp::vidiv:
      int_lanes(w, in, [](std::int64_t x, std::int64_t y) {
        HLSPROF_CHECK(y != 0, "integer division by zero in kernel");
        return x / y;
      });
      acc_int_ += lanes;
      break;
    case MOp::virem:
      int_lanes(w, in, [](std::int64_t x, std::int64_t y) {
        HLSPROF_CHECK(y != 0, "integer remainder by zero in kernel");
        return x % y;
      });
      acc_int_ += lanes;
      break;
    case MOp::viand:
      int_lanes(w, in, [](std::int64_t x, std::int64_t y) { return x & y; });
      acc_int_ += lanes;
      break;
    case MOp::vior:
      int_lanes(w, in, [](std::int64_t x, std::int64_t y) { return x | y; });
      acc_int_ += lanes;
      break;
    case MOp::vixor:
      int_lanes(w, in, [](std::int64_t x, std::int64_t y) { return x ^ y; });
      acc_int_ += lanes;
      break;
    case MOp::vishl:
      int_lanes(w, in,
                [](std::int64_t x, std::int64_t y) { return x << (y & 63); });
      acc_int_ += lanes;
      break;
    case MOp::viashr:
      int_lanes(w, in,
                [](std::int64_t x, std::int64_t y) { return x >> (y & 63); });
      acc_int_ += lanes;
      break;
    case MOp::vineg:
      for (int l = 0; l < lanes; ++l) {
        w[in.dst + l].i = wrap(-w[in.a + l].i, in.wrap);
      }
      acc_int_ += lanes;
      break;
    case MOp::icmp:
    case MOp::fcmp: {
      bool r = false;
      if (in.op == MOp::fcmp) {
        const double x = w[in.a].f;
        const double y = w[in.b].f;
        switch (Opcode(in.sub)) {
          case Opcode::cmp_lt: r = x < y; break;
          case Opcode::cmp_le: r = x <= y; break;
          case Opcode::cmp_gt: r = x > y; break;
          case Opcode::cmp_ge: r = x >= y; break;
          case Opcode::cmp_eq: r = x == y; break;
          case Opcode::cmp_ne: r = x != y; break;
          default: break;
        }
      } else {
        const std::int64_t x = w[in.a].i;
        const std::int64_t y = w[in.b].i;
        switch (Opcode(in.sub)) {
          case Opcode::cmp_lt: r = x < y; break;
          case Opcode::cmp_le: r = x <= y; break;
          case Opcode::cmp_gt: r = x > y; break;
          case Opcode::cmp_ge: r = x >= y; break;
          case Opcode::cmp_eq: r = x == y; break;
          case Opcode::cmp_ne: r = x != y; break;
          default: break;
        }
      }
      w[in.dst].i = r ? 1 : 0;
      ++acc_int_;
      break;
    }
    case MOp::fadd:
      w[in.dst].f = rnd(w[in.a].f + w[in.b].f, in.f32);
      ++acc_fp_;
      break;
    case MOp::fsub:
      w[in.dst].f = rnd(w[in.a].f - w[in.b].f, in.f32);
      ++acc_fp_;
      break;
    case MOp::fmul:
      w[in.dst].f = rnd(w[in.a].f * w[in.b].f, in.f32);
      ++acc_fp_;
      break;
    case MOp::fdiv:
      w[in.dst].f = rnd(w[in.a].f / w[in.b].f, in.f32);
      ++acc_fp_;
      break;
    case MOp::fneg: w[in.dst].f = -w[in.a].f; ++acc_fp_; break;
    case MOp::vfadd:
      fp_lanes(w, in, [](auto x, auto y) { return x + y; });
      acc_fp_ += lanes;
      break;
    case MOp::vfsub:
      fp_lanes(w, in, [](auto x, auto y) { return x - y; });
      acc_fp_ += lanes;
      break;
    case MOp::vfmul:
      fp_lanes(w, in, [](auto x, auto y) { return x * y; });
      acc_fp_ += lanes;
      break;
    case MOp::vfdiv:
      fp_lanes(w, in, [](auto x, auto y) { return x / y; });
      acc_fp_ += lanes;
      break;
    case MOp::vfneg:
      for (int l = 0; l < lanes; ++l) w[in.dst + l].f = -w[in.a + l].f;
      acc_fp_ += lanes;
      break;
    case MOp::fcount:
      acc_fp_ += lanes;
      break;
    case MOp::select: {
      const std::uint32_t src = w[in.a].i != 0 ? in.b : in.c;
      for (int l = 0; l < lanes; ++l) w[in.dst + l] = w[src + l];
      acc_int_ += lanes;
      break;
    }
    case MOp::cast_ii:
      for (int l = 0; l < lanes; ++l) {
        w[in.dst + l].i = wrap(w[in.a + l].i, in.wrap);
      }
      acc_int_ += lanes;
      break;
    case MOp::cast_if:
      on_f32(in.f32, [&](auto f32) {
        for (int l = 0; l < lanes; ++l) {
          w[in.dst + l].f = rnd<f32>(double(w[in.a + l].i));
        }
      });
      acc_int_ += lanes;
      break;
    case MOp::cast_fi:
      for (int l = 0; l < lanes; ++l) {
        w[in.dst + l].i = wrap(std::int64_t(w[in.a + l].f), in.wrap);
      }
      acc_int_ += lanes;
      break;
    case MOp::cast_ff:
      on_f32(in.f32, [&](auto f32) {
        for (int l = 0; l < lanes; ++l) {
          w[in.dst + l].f = rnd<f32>(w[in.a + l].f);
        }
      });
      acc_int_ += lanes;
      break;
    case MOp::copy:
      for (int l = 0; l < lanes; ++l) w[in.dst + l] = w[in.a + l];
      break;
    case MOp::broadcast:
      for (int l = 0; l < lanes; ++l) w[in.dst + l] = w[in.a];
      break;
    case MOp::extract:
      w[in.dst] = w[in.a + in.lane];
      break;
    case MOp::insert:
      for (int l = 0; l < lanes; ++l) w[in.dst + l] = w[in.a + l];
      w[in.dst + in.lane] = w[in.b];
      break;
    case MOp::reduce_f:
      // Lane order is part of the result: the sum stays sequential.
      on_f32(in.f32, [&](auto f32) {
        double s = 0.0;
        for (int l = 0; l < in.lane; ++l) s = rnd<f32>(s + w[in.a + l].f);
        w[in.dst].f = s;
      });
      acc_fp_ += in.lane - 1;
      break;
    case MOp::reduce_i: {
      std::int64_t s = 0;
      for (int l = 0; l < in.lane; ++l) s += w[in.a + l].i;
      w[in.dst].i = wrap(s, in.wrap);
      acc_int_ += in.lane - 1;
      break;
    }
    case MOp::load_local:
    case MOp::store_local: {
      const auto& arr = k_.local_arrays[static_cast<std::size_t>(in.index)];
      const std::int64_t index = w[in.a].i;
      const bool load = in.op == MOp::load_local;
      HLSPROF_CHECK(index >= 0 && index + lanes <= arr.size,
                    strf("kernel '%s': local array '%s' %s out of bounds",
                         k_.name.c_str(), arr.name.c_str(),
                         load ? "read" : "write"));
      double* store =
          locals_[static_cast<std::size_t>(in.index)].data() + index;
      if (load && in.is_float) {
        for (int l = 0; l < lanes; ++l) w[in.dst + l].f = store[l];
      } else if (load) {
        for (int l = 0; l < lanes; ++l) {
          w[in.dst + l].i = std::int64_t(store[l]);
        }
      } else {
        on_f32(in.f32, [&](auto f32) {
          if (in.is_float) {
            for (int l = 0; l < lanes; ++l) {
              store[l] = rnd<f32>(w[in.b + l].f);
            }
          } else {
            for (int l = 0; l < lanes; ++l) {
              store[l] = rnd<f32>(double(w[in.b + l].i));
            }
          }
        });
      }
      break;
    }
    case MOp::nop:
      break;
    default:
      fail("external memory and control ops do not evaluate");
  }
}

Thread::Thread(const Program& program, const std::vector<ArgValue>& args,
               thread_id_t tid, ExternalMemory& mem, const SimParams& params,
               SimHooks* hooks)
    : prog_(program),
      code_(program.code().data()),
      k_(program.design().kernel),
      args_(args),
      tid_(tid),
      mem_(mem),
      params_(params),
      hooks_(hooks),
      assumed_(cycle_t(program.design().options.lib.ext_assumed_min)),
      stall_mult_(program.design().options.thread_reordering
                      ? 1
                      : cycle_t(k_.num_threads)),
      ff_on_(params.fast_forward) {
  HLSPROF_CHECK(args.size() == k_.args.size(),
                "argument binding count mismatch");
  words_.assign(program.num_words(), Word{});
  w_ = words_.data();
  for (const Program::Init& in : program.inits()) {
    Word& w = w_[in.slot];
    switch (in.kind) {
      case Program::Init::Kind::word:
        w = in.value;
        break;
      case Program::Init::Kind::thread_id:
        w.i = std::int64_t(tid);
        break;
      case Program::Init::Kind::arg: {
        const ArgValue& av = args[static_cast<std::size_t>(in.arg)];
        if (in.is_float) {
          w.f = rnd(av.f, in.f32);
        } else {
          w.i = av.i;
        }
        break;
      }
    }
  }
  loops_.resize(program.loops().size());
  cons_.resize(program.num_concurrent());
  locals_.reserve(k_.local_arrays.size());
  for (const auto& arr : k_.local_arrays) {
    locals_.emplace_back(static_cast<std::size_t>(arr.size), 0.0);
  }
  if (ff_on_) ff_.resize(program.loops().size());
}

void Thread::start(cycle_t t) {
  HLSPROF_CHECK(!started_, "thread already started");
  started_ = true;
  time_ = t;
  last_flush_ = t;
  pc_ = 0;
}

/// Tail of a memory request: stall accounting, the request's one profiling
/// sample, functional data movement, and moving on to the next op.
/// Reached from commit_mem (event-loop round trip) and from the batched
/// inline paths — keeping it shared is what makes the two execution modes
/// cycle-exact.
[[gnu::always_inline]] inline void Thread::apply_mem(const MemTiming& timing) {
  const Instr& in = *pending_;
  const cycle_t expected = pending_issue_ + assumed_;
  const cycle_t stall =
      (timing.complete > expected ? timing.complete - expected : 0) *
      stall_mult_;
  stall_cycles_ += stall;
  if (hooks_ != nullptr) {
    const std::uint32_t bytes =
        in.op == MOp::preload
            ? std::uint32_t(pending_count_ * std::int64_t(in.bytes))
            : in.bytes;
    hooks_->sample_request(tid_, timing.accepted, bytes,
                           in.op == MOp::store_ext, expected, stall);
  }
  if (pipe_ != nullptr) {
    pipe_->iter_stall += stall;
  } else {
    time_ = expected + stall;
  }

  // Functional data movement, committed in global time order.
  const addr_t base = pending_addr_;
  const addr_t esz = in.esz;
  const auto sc = ir::Scalar(in.sub);
  if (in.op == MOp::preload) {
    ++ext_loads_;
    auto& store = locals_[static_cast<std::size_t>(in.array)];
    for (std::int64_t e = 0; e < pending_count_; ++e) {
      const addr_t a = base + addr_t(e) * esz;
      double x = 0.0;
      switch (sc) {
        case ir::Scalar::i32:
          x = double(mem_.read_scalar<std::int32_t>(a));
          break;
        case ir::Scalar::i64:
          x = double(mem_.read_scalar<std::int64_t>(a));
          break;
        case ir::Scalar::f32: x = double(mem_.read_scalar<float>(a)); break;
        case ir::Scalar::f64: x = mem_.read_scalar<double>(a); break;
      }
      store[static_cast<std::size_t>(pending_dst_index_ + e)] = rnd(x, in.f32);
    }
  } else if (in.op == MOp::load_ext) {
    ++ext_loads_;
    Word* v = w_ + in.dst;
    if (in.move) {
      for (int l = 0; l < in.lanes; ++l) {
        const addr_t a = base + addr_t(l) * esz;
        switch (sc) {
          case ir::Scalar::i32:
            v[l].i = mem_.read_scalar<std::int32_t>(a);
            break;
          case ir::Scalar::i64:
            v[l].i = mem_.read_scalar<std::int64_t>(a);
            break;
          case ir::Scalar::f32: v[l].f = mem_.read_scalar<float>(a); break;
          case ir::Scalar::f64: v[l].f = mem_.read_scalar<double>(a); break;
        }
      }
    }
  } else {
    ++ext_stores_;
    const Word* v = w_ + in.b;
    if (in.move) {
      for (int l = 0; l < in.lanes; ++l) {
        const addr_t a = base + addr_t(l) * esz;
        switch (sc) {
          case ir::Scalar::i32:
            mem_.write_scalar<std::int32_t>(a, std::int32_t(v[l].i));
            break;
          case ir::Scalar::i64:
            mem_.write_scalar<std::int64_t>(a, v[l].i);
            break;
          case ir::Scalar::f32:
            mem_.write_scalar<float>(a, float(v[l].f));
            break;
          case ir::Scalar::f64: mem_.write_scalar<double>(a, v[l].f); break;
        }
      }
    }
  }
  pending_ = nullptr;
  ++pc_;
}

[[gnu::always_inline]] inline addr_t Thread::ext_addr(
    const Instr& in, std::int64_t index) const {
  if (index < 0 || index > in.limit) [[unlikely]] out_of_bounds(in, index);
  return args_[static_cast<std::size_t>(in.index)].base +
         addr_t(index) * addr_t(in.stride);
}

[[gnu::always_inline]] inline bool Thread::suspend_mem(cycle_t issue) {
  action_.kind = Action::Kind::mem;
  action_.time = issue;
  waiting_ = true;
  return true;
}

[[gnu::always_inline]] inline bool Thread::exec_ext(const Instr& in) {
  const addr_t addr = ext_addr(in, w_[in.a].i);
  // Pipelined iterations issue VLOs at their scheduled offsets, shifted
  // by the stalls already accumulated this iteration: all of a thread's
  // external accesses multiplex onto one blocking read and one blocking
  // write port (paper §IV-B2c), so each overrun stalls the stage and
  // delays the iteration's later VLOs. Memory-level parallelism comes
  // from the *threads* (Nymble-MT), not from within a thread.
  const cycle_t issue =
      pipe_ ? pipe_->iter_base + cycle_t(in.start) + pipe_->iter_stall
            : time_;
  if (pipe_ == nullptr) flush_compute(issue);
  const bool is_write = in.op == MOp::store_ext;
  pending_ = &in;
  pending_addr_ = addr;
  pending_issue_ = issue;
  if (issue < mem_horizon_) {
    // Batched fast path: commit the request inline (see set_mem_horizon).
    // The strict `<` preserves the event loop's (time, seq) tie-break:
    // an equal-time event already in the heap would have popped first.
    check_cycle_limit(params_, tid_, issue);
    const MemTiming tm = mem_.access(issue, addr, in.bytes, is_write);
    ++batched_mem_;
    apply_mem(tm);
    return false;
  }
  return suspend_mem(issue);
}

void Thread::resume() {
  HLSPROF_CHECK(started_ && !finished_, "resume on a non-running thread");
  HLSPROF_CHECK(!waiting_, "resume while waiting for a response");
  Action& a = action_;
  for (;;) {
    const Instr& in = code_[pc_];
    if (in.op < MOp::load_ext) {
      eval(in);
      if (pipe_ == nullptr) time_ += cycle_t(in.lat);
      ++pc_;
      continue;
    }
    switch (in.op) {
      case MOp::load_ext:
      case MOp::store_ext:
        if (exec_ext(in)) return;
        break;
      case MOp::preload:
        if (exec_preload(in)) return;
        break;
      case MOp::loop_enter:
        if (enter_loop(std::size_t(in.index))) return;
        break;
      case MOp::loop_next:
        if (next_iteration(std::size_t(in.index))) return;
        break;
      case MOp::branch:
        pc_ = w_[in.a].i != 0 ? pc_ + 1 : in.target;
        break;
      case MOp::jump:
        pc_ = in.target;
        break;
      case MOp::acquire:
      case MOp::release:
        ++pc_;
        a.kind = in.op == MOp::acquire ? Action::Kind::acquire
                                       : Action::Kind::release;
        a.time = time_;
        a.id = in.index;
        waiting_ = true;
        flush_compute(time_);
        return;
      case MOp::barrier:
        ++pc_;
        a.kind = Action::Kind::barrier;
        a.time = time_;
        a.id = in.index;
        waiting_ = true;
        flush_compute(time_);
        return;
      case MOp::con_begin: {
        flush_compute(time_);  // branch replay rewinds the clock
        cons_[std::size_t(in.index)] = ConState{time_, time_};
        ++pc_;
        break;
      }
      case MOp::con_next:
      case MOp::con_end: {
        // A branch just completed: flush its op counts at its own end
        // time, then replay the next branch from the region's start time
        // (the datapath executes the branches simultaneously).
        ConState& c = cons_[std::size_t(in.index)];
        flush_compute(time_);
        c.max_end = std::max(c.max_end, time_);
        time_ = in.op == MOp::con_next ? c.t0 : c.max_end;
        last_flush_ = time_;
        ++pc_;
        break;
      }
      case MOp::halt:
        flush_compute(time_);
        finished_ = true;
        a.kind = Action::Kind::finished;
        a.time = time_;
        return;
      default:
        fail("unreachable micro-op");
    }
  }
}

bool Thread::enter_loop(std::size_t li) {
  const LoopDesc& L = prog_.loops()[li];
  LoopState& ls = loops_[li];
  ls = LoopState{};
  ls.iv = w_[L.init].i;
  ls.iv_init = ls.iv;
  ls.bound = w_[L.bound].i;
  ls.step = w_[L.step].i;
  HLSPROF_CHECK(ls.step > 0, "loop step must be positive (kernel '" +
                                 k_.name + "', loop '" + L.stmt->name + "')");
  w_[L.var].i = ls.iv;
  time_ += params_.ctrl.loop_entry_overhead;
  ls.loop_end = time_;
  return begin_iteration_or_exit(li);
}

bool Thread::next_iteration(std::size_t li) {
  const LoopDesc& L = prog_.loops()[li];
  LoopState& ls = loops_[li];
  if (L.pipelined) {
    ls.loop_end = std::max(ls.loop_end,
                           ls.iter_base + ls.iter_stall + cycle_t(L.depth));
  }
  ls.iv += ls.step;
  w_[L.var].i = ls.iv;
  return begin_iteration_or_exit(li);
}

bool Thread::begin_iteration_or_exit(std::size_t li) {
  const LoopDesc& L = prog_.loops()[li];
  LoopState& ls = loops_[li];
  if (!(ls.iv < ls.bound)) {
    if (L.pipelined) {
      time_ = std::max(time_, ls.loop_end);
      pipe_ = nullptr;
    }
    flush_compute(time_);
    pc_ = L.next + 1;
    return false;
  }
  pc_ = L.body;
  if (!L.pipelined) {
    time_ += params_.ctrl.loop_iter_overhead;
    return false;
  }
  if (ls.first_iter) {
    ls.iter_base = time_;
  } else {
    ls.iter_base += cycle_t(L.ii) + ls.iter_stall;
  }
  ls.first_iter = false;
  ls.iter_stall = 0;
  pipe_ = &ls;
  if (L.simple && mem_horizon_ != 0) return run_batched_iterations(li);
  return false;
}

bool Thread::run_batched_iterations(std::size_t li) {
  // Cycle-exactness: every effect below reuses the generic machinery's
  // code (eval, exec_ext, apply_mem, the loop arithmetic of
  // next_iteration/begin_iteration_or_exit) — only the dispatch around it
  // is gone.
  const LoopDesc& L = prog_.loops()[li];
  LoopState& ls = loops_[li];
  const std::uint32_t end = L.next;
  ff::LoopPhase* ph = ff_on_ ? ff_phase(li) : nullptr;
  for (;;) {
    long long ff_int0 = 0;
    long long ff_fp0 = 0;
    if (ph != nullptr) {
      if (pc_ == L.body && ls.iv == ls.iv_init && ls.step > 0) {
        const std::int64_t trip =
            ls.bound > ls.iv_init
                ? (ls.bound - ls.iv_init + ls.step - 1) / ls.step
                : 0;
        ph->begin_instance(trip);
        if (!ph->inst_active) ph = nullptr;  // decline backoff: sit out
      }
      if (ph != nullptr) {
        ph->begin_iteration(ls.iv, pc_ == L.body);
        ff_int0 = acc_int_;
        ff_fp0 = acc_fp_;
      }
    }
    while (pc_ < end) {
      const Instr& in = code_[pc_];
      if (in.op < MOp::load_ext) {
        eval(in);
        ++pc_;
      } else if (in.op == MOp::preload) {
        if (exec_preload(in)) return true;  // batched inline or suspended
      } else {
        const cycle_t issue =
            ls.iter_base + cycle_t(in.start) + ls.iter_stall;
        if (issue >= mem_horizon_) {
          // Another thread has an event at or before `issue`: hand the
          // request to the generic path, which re-derives it and returns
          // the Action for the event loop to commit in global order.
          return exec_ext(in);
        }
        check_cycle_limit(params_, tid_, issue);
        const addr_t addr = ext_addr(in, w_[in.a].i);
        const bool is_write = in.op == MOp::store_ext;
        pending_ = &in;
        pending_addr_ = addr;
        pending_issue_ = issue;
        const MemTiming tm = mem_.access(issue, addr, in.bytes, is_write);
        if (ph != nullptr) ph->note_mem(addr, tm.row_hit);
        ++batched_mem_;
        apply_mem(tm);  // advances pc_
      }
    }
    // Iteration complete: advance the loop exactly as next_iteration +
    // begin_iteration_or_exit would, without leaving the tight loop.
    ls.loop_end = std::max(ls.loop_end,
                           ls.iter_base + ls.iter_stall + cycle_t(L.depth));
    const std::int64_t iv_done = ls.iv;
    const cycle_t iter_cycles = cycle_t(L.ii) + ls.iter_stall;
    ls.iv += ls.step;
    w_[L.var].i = ls.iv;
    if (!(ls.iv < ls.bound)) {
      if (ph != nullptr && ph->finish_instance(iter_cycles)) {
        ff_gate_model(L, *ph);  // a calibration completed: model-check it
      }
      time_ = std::max(time_, ls.loop_end);
      pipe_ = nullptr;
      flush_compute(time_);
      pc_ = L.next + 1;
      return false;
    }
    ls.iter_base += cycle_t(L.ii) + ls.iter_stall;
    ls.iter_stall = 0;
    pc_ = L.body;
    if (ph != nullptr &&
        ph->end_iteration(iv_done, ls.step, iter_cycles, acc_int_ - ff_int0,
                          acc_fp_ - ff_fp0)) {
      if (ph->cand_needs_gate) {
        // Fresh in-instance window calibration: model-check it first.
        ff_gate_model(L, *ph);
        ph->cand_needs_gate = false;
      }
      if (ph->cand->model_ok) ff_try_jump(L, ls, *ph);
    }
  }
}

ff::LoopPhase* Thread::ff_phase(std::size_t li) {
  FfLoop& fl = ff_[li];
  ff::LoopPhase& ph = fl.phase;
  if (!fl.ready) {
    fl.ready = true;
    const LoopDesc& L = prog_.loops()[li];
    ph.eligible = L.pipelined;
    for (std::uint32_t pc = L.body; pc < L.next; ++pc) {
      const Instr& in = code_[pc];
      if (in.op == MOp::preload) {
        // Burst requests have their own bus master and line-granular
        // timing; steady-state prediction only covers plain requests.
        ph.eligible = false;
        break;
      }
      if (in.op == MOp::load_ext || in.op == MOp::store_ext) {
        ff::OpTrack ot;
        ot.bytes = in.bytes;
        ot.is_write = in.op == MOp::store_ext;
        if (ot.is_write) {
          ++ph.stores_per_iter;
          ph.bytes_written_per_iter += ot.bytes;
        } else {
          ++ph.loads_per_iter;
          ph.bytes_read_per_iter += ot.bytes;
        }
        ph.ops.push_back(ot);
      }
    }
    // Pure-compute loops have nothing to predict from DramParams — they
    // execute exactly (pi stays bit-identical in approx mode).
    if (ph.ops.empty()) ph.eligible = false;
    ph.line_bytes = params_.dram.line_bytes;
    ph.row_bytes = params_.dram.row_bytes;
    ph.num_banks = params_.dram.num_banks;
  }
  return ph.eligible ? &ph : nullptr;
}

void Thread::ff_gate_model(const LoopDesc& L, ff::LoopPhase& ph) {
  // Gate the fresh calibration on the analytical DRAM model: a measured
  // rate the model cannot explain from DramParams is not memory-governed
  // (e.g. dominated by contention the geometry does not capture), so
  // instances of this geometry keep executing exactly.
  ff::Calibration& c = *ph.cand;
  const long long span_reqs =
      (ph.loads_per_iter + ph.stores_per_iter) * c.span_iters;
  c.hit_rate = span_reqs > 0
                   ? std::min(1.0, double(c.span_hits) / double(span_reqs))
                   : 0.0;
  const double span_cpi =
      c.span_iters > 0 ? double(c.span_cycles) / double(c.span_iters) : 0.0;
  const double model =
      ff::predict_cpi(params_.dram, ph, L.ii, int(assumed_), int(stall_mult_),
                      c.hit_rate);
  c.model_residual = std::fabs(model - span_cpi) / std::max(1.0, span_cpi);
  c.model_ok = c.model_residual <= ff::kModelGate;
  if (!c.model_ok) ++ff_stats_.model_rejects;
}

void Thread::ff_try_jump(const LoopDesc& L, LoopState& ls,
                         ff::LoopPhase& ph) {
  const ff::Calibration& c = *ph.cand;  // validated by end_iteration
  const std::int64_t skip = c.span_iters;
  const cycle_t delta = c.span_cycles;
  const cycle_t b0 = ls.iter_base;
  // The synthesized span must stay strictly below the batching horizon
  // (the earliest other pending event) and the livelock guard; a jump we
  // cannot take degrades the instance to an exact re-calibrating run.
  cycle_t limit = params_.max_cycles;
  if (mem_horizon_ != kNoCycle && mem_horizon_ < limit) limit = mem_horizon_;
  if (delta < ff::kMinSkipCycles || b0 >= limit || delta > limit - b0) {
    ph.jump_declined();
    return;
  }
  const cycle_t t1 = b0 + delta;

  // -- apply the jump ----------------------------------------------------
  // Below the horizon this thread provably runs solo, so the whole jump
  // is local: the loop state, this thread's counters, and the shared
  // memory model's pipeline position. No other thread's state moves.
  ls.iv += ls.step * skip;
  w_[L.var].i = ls.iv;
  ls.iter_base = t1;
  // loop_end needs no synthetic update: the margin iterations run for
  // real at larger bases and dominate the max at loop exit.

  const cycle_t ii_span = cycle_t(skip) * cycle_t(L.ii);
  const cycle_t synth_stall = delta > ii_span ? delta - ii_span : 0;
  stall_cycles_ += synth_stall;
  ext_loads_ += ph.loads_per_iter * skip;
  ext_stores_ += ph.stores_per_iter * skip;
  const long long skip_int = ph.int_per_iter * skip;
  const long long skip_fp = ph.fp_per_iter * skip;
  total_int_ops_ += skip_int;
  total_fp_ops_ += skip_fp;
  // Flush real compute accumulated so far at b0, then account the
  // skipped span as its own uniform aggregate over [b0, t1).
  flush_compute(b0);
  if (hooks_ != nullptr) {
    if (skip_int > 0 || skip_fp > 0) {
      hooks_->sample_compute(tid_, skip_int, skip_fp, b0, t1);
    }
    hooks_->on_mem_span(tid_, b0, t1, ph.bytes_read_per_iter * skip,
                        ph.bytes_written_per_iter * skip);
    if (synth_stall > 0) hooks_->on_stall_span(tid_, b0, t1, synth_stall);
  }
  last_flush_ = std::max(last_flush_, t1);

  // Memory model: keep the arbiter/bank pipelines in the same relative
  // position they held before the jump, open the rows the last skipped
  // requests would have left (stride-affine streams make them exact),
  // and absorb the skipped requests into the counters at the calibrated
  // hit mix.
  mem_.ff_advance(delta);
  const long long reqs = (ph.loads_per_iter + ph.stores_per_iter) * skip;
  mem_.ff_absorb(ph.loads_per_iter * skip, ph.stores_per_iter * skip,
                 (long long)(ph.bytes_read_per_iter * skip),
                 (long long)(ph.bytes_written_per_iter * skip), c.span_hits,
                 reqs - c.span_hits);
  ph.after_jump(ls.iv, skip);
  ff_project_rows(ph, skip);

  ++ff_stats_.phases;
  ff_stats_.cycles_skipped += delta;
  ff_stats_.residual_sum += c.model_residual;
}

void Thread::ff_project_rows(const ff::LoopPhase& ph, std::int64_t skip) {
  // The skipped span covered iterations [iter_index - skip, iter_index).
  // For each stream the rows it visited are monotone in the iteration
  // index, so the last touch of row r has a closed form; collect the
  // trailing num_banks rows per stream (older rows were evicted by row
  // interleaving) and apply them oldest-first so per bank the newest
  // touch wins, exactly as the real access order would have.
  const std::int64_t rb = std::int64_t(params_.dram.row_bytes);
  const std::int64_t nb = std::max(1, params_.dram.num_banks);
  const std::int64_t k_end = ph.iter_index - 1;
  const std::int64_t k_start = ph.iter_index - skip;
  std::vector<RowOpen>& opens = ff_opens_;
  opens.clear();
  for (std::size_t oi = 0; oi < ph.ops.size(); ++oi) {
    const ff::OpTrack& ot = ph.ops[oi];
    const std::int64_t start = std::int64_t(ot.inst_start);
    const std::int64_t s = ot.stride;
    const std::int64_t row_first = (start + s * k_start) / rb;
    const std::int64_t row_last = (start + s * k_end) / rb;
    if (s == 0 || row_first == row_last) {
      opens.push_back({k_end, oi, row_last});
      continue;
    }
    const std::int64_t dir = s > 0 ? 1 : -1;
    std::int64_t r = row_last;
    for (std::int64_t n = 0; n < nb; ++n) {
      if (dir > 0 ? r < row_first : r > row_first) break;
      std::int64_t k = k_end;
      if (r != row_last) {
        k = dir > 0 ? ((r + 1) * rb - 1 - start) / s
                    : (start - r * rb) / (-s);
      }
      if (k >= k_start && k <= k_end) opens.push_back({k, oi, r});
      r -= dir;
    }
  }
  std::sort(opens.begin(), opens.end(),
            [](const RowOpen& a, const RowOpen& b) {
              return a.k != b.k ? a.k < b.k : a.op < b.op;
            });
  for (const RowOpen& o : opens) {
    mem_.ff_touch_row(addr_t(o.row) * params_.dram.row_bytes);
  }
}

bool Thread::exec_preload(const Instr& in) {
  const std::int64_t src_index = w_[in.a].i;
  const std::int64_t dst_index = w_[in.b].i;
  const std::int64_t count = w_[in.c].i;
  const ir::Arg& arg = k_.args[static_cast<std::size_t>(in.index)];
  const auto& arr = k_.local_arrays[static_cast<std::size_t>(in.array)];
  HLSPROF_CHECK(count >= 0, "preload count must be non-negative");
  HLSPROF_CHECK(src_index >= 0 && src_index + count <= arg.count,
                strf("kernel '%s': preload source range out of bounds in "
                     "'%s'",
                     k_.name.c_str(), arg.name.c_str()));
  HLSPROF_CHECK(dst_index >= 0 && dst_index + count <= arr.size,
                strf("kernel '%s': preload destination range out of "
                     "bounds in '%s'",
                     k_.name.c_str(), arr.name.c_str()));
  if (count == 0) {
    ++pc_;
    return false;
  }
  const cycle_t issue =
      pipe_ ? pipe_->iter_base + cycle_t(in.start) + pipe_->iter_stall
            : time_;
  if (pipe_ == nullptr) flush_compute(issue);
  const addr_t addr = args_[static_cast<std::size_t>(in.index)].base +
                      addr_t(src_index) * addr_t(in.bytes);
  const std::uint32_t bytes = std::uint32_t(count * std::int64_t(in.bytes));
  pending_ = &in;
  pending_addr_ = addr;
  pending_issue_ = issue;
  pending_dst_index_ = dst_index;
  pending_count_ = count;
  if (issue < mem_horizon_) {
    // Batched fast path: no other thread has an event before `issue`,
    // so the burst commits against the memory model inline — exactly
    // the sub-requests the event loop would have issued.
    check_cycle_limit(params_, tid_, issue);
    const MemTiming tm = mem_.burst(issue, addr, bytes);
    ++batched_mem_;
    apply_mem(tm);
    return false;
  }
  return suspend_mem(issue);
}

void Thread::commit_mem() {
  HLSPROF_CHECK(waiting_ && action_.kind == Action::Kind::mem,
                "unexpected commit_mem");
  waiting_ = false;
  const Instr& in = *pending_;
  apply_mem(in.op == MOp::preload
                ? mem_.burst(pending_issue_, pending_addr_,
                             std::uint32_t(pending_count_ *
                                           std::int64_t(in.bytes)))
                : mem_.access(pending_issue_, pending_addr_, in.bytes,
                              in.op == MOp::store_ext));
}

void Thread::lock_granted(cycle_t t) {
  HLSPROF_CHECK(waiting_ && action_.kind == Action::Kind::acquire,
                "unexpected lock_granted");
  waiting_ = false;
  time_ = std::max(time_, t);
  last_flush_ = std::max(last_flush_, time_);
}

void Thread::release_done(cycle_t t) {
  HLSPROF_CHECK(waiting_ && action_.kind == Action::Kind::release,
                "unexpected release_done");
  waiting_ = false;
  time_ = std::max(time_, t);
}

void Thread::barrier_released(cycle_t t) {
  HLSPROF_CHECK(waiting_ && action_.kind == Action::Kind::barrier,
                "unexpected barrier_released");
  waiting_ = false;
  time_ = std::max(time_, t);
  last_flush_ = std::max(last_flush_, time_);
}

void Thread::flush_compute(cycle_t now) {
  if (acc_int_ == 0 && acc_fp_ == 0) {
    last_flush_ = std::max(last_flush_, now);
    return;
  }
  const cycle_t t0 = last_flush_;
  const cycle_t t1 = std::max(now, last_flush_ + 1);
  if (hooks_ != nullptr) {
    hooks_->sample_compute(tid_, acc_int_, acc_fp_, t0, t1);
  }
  total_int_ops_ += acc_int_;
  total_fp_ops_ += acc_fp_;
  acc_int_ = 0;
  acc_fp_ = 0;
  last_flush_ = t1;
}

void Thread::out_of_bounds(const Instr& in, std::int64_t index) const {
  const ir::Arg& arg = k_.args[static_cast<std::size_t>(in.index)];
  fail(strf("kernel '%s': out-of-bounds access to '%s' (index %lld + %d "
            "lanes exceeds mapped count %lld)",
            k_.name.c_str(), arg.name.c_str(), static_cast<long long>(index),
            int(in.lanes), static_cast<long long>(arg.count)));
}

}  // namespace hlsprof::sim
