// One hardware thread executing a lowered Program (sim/program.hpp). The
// thread is both *functional* (it computes the kernel's actual values
// against the simulated DRAM/BRAM contents) and *timed*: pipelined loops
// advance time by their scheduled initiation interval plus dynamic stalls
// whenever a variable-latency operation overruns the scheduler's assumed
// minimum (paper §III-B); sequential regions charge per-operator
// latencies.
//
// The thread is a resumable state machine: `resume()` runs until it needs
// a shared resource (external memory, the semaphore, a barrier) and
// leaves the corresponding Action in the thread; the simulator's event
// loop commits actions in global time order and feeds the result back.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/fastforward.hpp"
#include "sim/hooks.hpp"
#include "sim/memory.hpp"
#include "sim/params.hpp"
#include "sim/program.hpp"

namespace hlsprof::sim {

/// Runtime binding for one kernel argument.
struct ArgValue {
  bool is_pointer = false;
  addr_t base = 0;       // device base address (pointer args)
  std::int64_t i = 0;    // scalar integer args
  double f = 0.0;        // scalar float args
};

/// A shared-resource interaction the thread needs the simulator to commit.
/// A memory request's address and size stay in the thread, which commits
/// it itself (Thread::commit_mem).
struct Action {
  enum class Kind : std::uint8_t {
    mem,       // external memory request
    acquire,   // critical-section entry (semaphore request)
    release,   // critical-section exit
    barrier,   // OpenMP barrier arrival
    finished,  // thread completed the kernel
  };
  cycle_t time = 0;  // issue/request cycle
  int id = 0;        // lock id (acquire/release) or barrier id
  Kind kind = Kind::finished;
};

/// Livelock guard of both event loops and the batched paths: fails once
/// thread `tid` reaches cycle `t` past `params.max_cycles`, naming the
/// thread, the cycle and the limit.
[[noreturn, gnu::cold]] void cycle_limit_exceeded(const SimParams& params,
                                                  thread_id_t tid, cycle_t t);
inline void check_cycle_limit(const SimParams& params, thread_id_t tid,
                              cycle_t t) {
  if (t > params.max_cycles) [[unlikely]] {
    cycle_limit_exceeded(params, tid, t);
  }
}

class Thread {
 public:
  Thread(const Program& program, const std::vector<ArgValue>& args,
         thread_id_t tid, ExternalMemory& mem, const SimParams& params,
         SimHooks* hooks);

  /// Begin execution at cycle `t` (the host started this thread).
  void start(cycle_t t);

  /// Run until the next Action, which action() then holds. Must not be
  /// called while an Action is outstanding (feed the response first).
  void resume();
  const Action& action() const { return action_; }

  /// Responses to action(). commit_mem submits the outstanding memory
  /// request to the memory model and applies its timing.
  void commit_mem();
  void lock_granted(cycle_t t);
  void release_done(cycle_t t);
  void barrier_released(cycle_t t);

  /// Batched memory streams (fast path): until the next `resume` returns,
  /// the thread may commit external-memory requests whose issue cycle is
  /// *strictly* below `horizon` directly against the memory model —
  /// bank/bus state advances and each request is sampled exactly as if
  /// it had taken a round trip through the event loop. The
  /// simulator sets the horizon to the earliest other pending event
  /// before every resume (kNoCycle when no other thread has one); 0
  /// disables batching (the reference event loop never raises it).
  void set_mem_horizon(cycle_t horizon) { mem_horizon_ = horizon; }
  /// External-memory requests committed inline by the batching fast path.
  long long batched_mem() const { return batched_mem_; }
  /// Fast-forward statistics (all zero unless SimParams::fast_forward).
  const ff::FfStats& ff_stats() const { return ff_stats_; }

  // Dynamic per-thread statistics.
  cycle_t stall_cycles() const { return stall_cycles_; }
  long long int_ops() const { return total_int_ops_; }
  long long fp_ops() const { return total_fp_ops_; }
  long long ext_loads() const { return ext_loads_; }
  long long ext_stores() const { return ext_stores_; }

 private:
  /// Per-instance state of an active loop (indexed like Program::loops).
  struct LoopState {
    std::int64_t iv = 0;
    std::int64_t iv_init = 0;  // initial induction value (instance start)
    std::int64_t bound = 0;
    std::int64_t step = 0;
    cycle_t iter_base = 0;
    cycle_t iter_stall = 0;
    cycle_t loop_end = 0;
    bool first_iter = true;
  };
  /// Per-execution state of a concurrent region: its branches replay
  /// from `t0` and the region ends at the latest branch end.
  struct ConState {
    cycle_t t0 = 0;
    cycle_t max_end = 0;
  };
  /// A DRAM row a skipped span leaves open (ff_project_rows).
  struct RowOpen {
    std::int64_t k;   // last-touch iteration index
    std::size_t op;   // body order breaks ties (the later op wins)
    std::int64_t row;
  };
  /// A loop's fast-forward phase, set up on the loop's first batched run.
  struct FfLoop {
    bool ready = false;
    ff::LoopPhase phase;
  };

  void eval(const Instr& in);
  bool exec_ext(const Instr& in);
  bool exec_preload(const Instr& in);
  bool suspend_mem(cycle_t issue);  // leaves the request to the event loop
  void apply_mem(const MemTiming& timing);  // shared mem-commit tail
  addr_t ext_addr(const Instr& in, std::int64_t index) const;
  [[noreturn, gnu::cold]] void out_of_bounds(const Instr& in,
                                             std::int64_t index) const;
  void flush_compute(cycle_t now);
  /// Loop control: set up an instance / finish an iteration, then start
  /// the next iteration or leave the loop. Returns true if the batched
  /// executor produced an Action.
  bool enter_loop(std::size_t li);
  bool next_iteration(std::size_t li);
  bool begin_iteration_or_exit(std::size_t li);
  /// Batched executor for pipelined loops whose body is straight-line ops:
  /// runs iterations in a tight loop, committing memory requests inline
  /// while they stay below the batching horizon and handing the request
  /// that reaches it to the generic path. Only entered when batching is
  /// active (fast path); the reference event loop must suspend at every
  /// memory action. PRE: pc_ is the loop's first body op.
  bool run_batched_iterations(std::size_t li);
  /// Fast-forward phase tracker of loop `li` (approx mode only): nullptr
  /// when the loop cannot fast-forward (no external ops, preloads in the
  /// body, or not pipelined).
  ff::LoopPhase* ff_phase(std::size_t li);
  /// The phase just confirmed steady state: jump over the remaining
  /// iterations (minus the margin), synthesizing the aggregate effects
  /// of the skipped span. Called at a clean iteration boundary —
  /// ls.iter_base is the start of the next, not-yet-executed iteration.
  void ff_try_jump(const LoopDesc& L, LoopState& ls, ff::LoopPhase& ph);
  void ff_gate_model(const LoopDesc& L, ff::LoopPhase& ph);
  /// Re-open the DRAM rows the skipped span would have left open. Row
  /// interleaving means a multi-row walk leaves its last `num_banks`
  /// rows open in distinct banks, and overlapping streams overwrite each
  /// other in access order — so project per stream the last-touch
  /// iteration of each trailing row and replay the opens oldest-first.
  void ff_project_rows(const ff::LoopPhase& ph, std::int64_t skip);

  const Program& prog_;
  const Instr* code_;  // prog_.code().data()
  const ir::Kernel& k_;
  const std::vector<ArgValue>& args_;
  thread_id_t tid_;
  ExternalMemory& mem_;
  const SimParams& params_;
  SimHooks* hooks_;  // may be null
  cycle_t assumed_;  // scheduler's assumed minimum external latency
  /// Stall multiplier: 1 with thread reordering, else num_threads (plain
  /// C-slow interleaving: one thread's overrun halts the wheel for all).
  cycle_t stall_mult_;

  std::vector<Word> words_;
  Word* w_ = nullptr;  // words_.data(), hoisted for the op hot path
  std::vector<LoopState> loops_;
  std::vector<ConState> cons_;
  std::vector<std::vector<double>> locals_;
  std::vector<FfLoop> ff_;  // approx mode only; empty otherwise
  std::vector<RowOpen> ff_opens_;  // ff_project_rows' scratch, reused
  ff::FfStats ff_stats_;
  bool ff_on_ = false;

  std::uint32_t pc_ = 0;
  cycle_t time_ = 0;
  bool started_ = false;
  bool finished_ = false;
  /// The innermost active pipelined loop, or nullptr (sequential mode).
  LoopState* pipe_ = nullptr;

  Action action_;
  bool waiting_ = false;  // action_ awaits its response
  const Instr* pending_ = nullptr;  // the memory op awaiting its timing
  addr_t pending_addr_ = 0;
  cycle_t pending_issue_ = 0;
  std::int64_t pending_dst_index_ = 0;  // preload destination
  std::int64_t pending_count_ = 0;      // preload element count
  cycle_t mem_horizon_ = 0;     // batching horizon; 0 = disabled
  long long batched_mem_ = 0;   // inline-committed memory requests

  // statistics + compute-hook batching
  cycle_t stall_cycles_ = 0;
  long long total_int_ops_ = 0;
  long long total_fp_ops_ = 0;
  long long ext_loads_ = 0;
  long long ext_stores_ = 0;
  long long acc_int_ = 0;
  long long acc_fp_ = 0;
  cycle_t last_flush_ = 0;
};

}  // namespace hlsprof::sim
