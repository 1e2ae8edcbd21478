// The full-system simulator: host/driver model (map transfers, sequential
// thread starts), the event loop that commits shared-resource actions in
// global time order, the DRAM/bus model, and the hardware semaphore and
// barrier. One Simulator instance runs one kernel launch.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "hls/design.hpp"
#include "sim/hooks.hpp"
#include "sim/memory.hpp"
#include "sim/params.hpp"
#include "sim/program.hpp"
#include "sim/sync.hpp"
#include "sim/thread.hpp"

namespace hlsprof::sim {

/// One host<->device map() transfer (timing of copy_in/copy_out).
struct HostTransfer {
  std::string arg;
  bool to_device = true;
  cycle_t begin = 0;
  cycle_t end = 0;
  std::uint64_t bytes = 0;
};

struct ThreadStats {
  cycle_t start = 0;
  cycle_t end = 0;
  cycle_t stall_cycles = 0;
  long long int_ops = 0;
  long long fp_ops = 0;
  long long ext_loads = 0;
  long long ext_stores = 0;
};

struct SimResult {
  /// End-to-end cycles including map(to) transfers, thread starts, kernel
  /// execution, and map(from) transfers — the "total time" the pi case
  /// study's GFLOP/s numbers are computed against (paper §V-D).
  cycle_t total_cycles = 0;
  /// Cycle the accelerator context was ready (map-in transfers complete).
  cycle_t kernel_start = 0;
  /// Cycle the last hardware thread finished.
  cycle_t kernel_done = 0;
  /// kernel_done - kernel_start: the accelerator-execution cycle count the
  /// paper reports for the GEMM case study (§V-C).
  cycle_t kernel_cycles = 0;

  std::vector<ThreadStats> threads;
  std::vector<HostTransfer> transfers;  // map(to/from/tofrom) movements

  long long dram_reads = 0;
  long long dram_writes = 0;
  long long dram_bytes_read = 0;
  long long dram_bytes_written = 0;
  double row_hit_rate = 0.0;

  cycle_t total_stall_cycles() const;
  long long total_fp_ops() const;
};

class Simulator {
 public:
  /// `mem_capacity` sizes the simulated DRAM (kernel buffers + trace).
  Simulator(const hls::Design& design, SimParams params = SimParams{},
            std::size_t mem_capacity = std::size_t{64} << 20);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // ---- Host-side argument binding --------------------------------------
  void bind_f32(const std::string& name, std::span<float> host);
  void bind_f64(const std::string& name, std::span<double> host);
  void bind_i32(const std::string& name, std::span<std::int32_t> host);
  void bind_i64(const std::string& name, std::span<std::int64_t> host);
  void set_arg(const std::string& name, std::int64_t v);
  void set_arg(const std::string& name, double v);

  /// Device base address of a pointer argument (for trace inspection).
  addr_t device_base(const std::string& name) const;

  /// The simulated external memory — shared with the profiling unit so
  /// tracer flush traffic contends with application traffic.
  ExternalMemory& memory() { return mem_; }

  /// Run the kernel once. `hooks` may be null (run without profiling).
  /// Throws hlsprof::Error on unbound arguments, kernel faults
  /// (out-of-bounds, div-by-zero), deadlock, or cycle-limit overrun.
  ///
  /// One event loop runs in two cycle-exact identical modes: the fast
  /// path (default — direct dispatch plus batched memory streams) and the
  /// reference mode (`SimParams::reference_event_loop`), which commits
  /// every shared-resource action through the global event heap.
  SimResult run(SimHooks* hooks = nullptr);

  /// How often the previous run() stayed on the fast path. Zeros after a
  /// reference-mode run; intentionally *not* part of SimResult so result
  /// fields stay identical between the two modes.
  struct FastPathStats {
    std::uint64_t direct_dispatch = 0;  // actions committed without the heap
    std::uint64_t batched_mem = 0;      // memory requests committed inline
  };
  FastPathStats fast_path_stats() const { return fast_stats_; }

  /// Fast-forward activity of the previous run() (all zero unless
  /// SimParams::fast_forward caused at least one jump). Like
  /// FastPathStats, intentionally not part of SimResult.
  struct FastForwardStats {
    std::uint64_t phases = 0;          // jumps applied across all threads
    std::uint64_t cycles_skipped = 0;  // simulated cycles not executed
    double model_residual = 0.0;       // mean |predicted-measured|/measured
    std::uint64_t model_rejects = 0;   // steady phases the model vetoed
  };
  FastForwardStats fast_forward_stats() const { return ff_stats_; }

  const hls::Design& design() const { return d_; }
  const SimParams& params() const { return params_; }

 private:
  struct BoundArg {
    ArgValue value;
    void* host = nullptr;  // pointer args: host buffer (element type of arg)
    std::size_t host_elems = 0;
    bool bound = false;
  };

  /// A heap entry ordered by (time, seq) as one 128-bit key: the time
  /// in the high word, seq above the thread id in the low word. The id
  /// takes the low 6 bits, hence num_threads <= 64.
  struct Event {
    unsigned __int128 key;
    cycle_t time() const { return cycle_t(key >> 64); }
    thread_id_t tid() const { return thread_id_t(key) & 63; }
    bool operator>(const Event& o) const { return key > o.key; }
  };

  /// What committing one action did to its thread.
  enum class Commit : std::uint8_t {
    advanced,  // the thread produced its next action
    parked,    // the thread blocked (semaphore queue / barrier)
    finished,  // the thread completed the kernel
  };

  int arg_index(const std::string& name) const;
  void bind_pointer(const std::string& name, void* data, std::size_t elems,
                    ir::Scalar expect);
  cycle_t copy_in(cycle_t t);
  cycle_t copy_out(cycle_t t);
  cycle_t transfer_cycles(std::size_t bytes) const;
  std::vector<HostTransfer> transfers_;
  Event make_event(cycle_t t, thread_id_t tid) {
    return Event{(unsigned __int128)t << 64 | seq_++ << 6 | tid};
  }
  void push_event(cycle_t t, thread_id_t tid);
  Event pop_event();
  /// push_event(t, tid) then pop_event() in one sift: the thread that just
  /// ran usually goes straight back into the heap.
  Event push_pop_event(cycle_t t, thread_id_t tid);
  void advance(thread_id_t tid, bool allow_batching);
  void start_thread(thread_id_t tid, cycle_t t, SimHooks* hooks);
  /// Commits the thread's outstanding action; every use of it precedes
  /// the advance that replaces it.
  Commit commit_action(thread_id_t tid, SimHooks* hooks);
  void event_loop(SimHooks* hooks);
  void emit_state(SimHooks* hooks, thread_id_t tid, ThreadState s, cycle_t t);

  const hls::Design& d_;
  SimParams params_;
  Program prog_;  // lowered once, shared by every thread and run
  ExternalMemory mem_;
  Semaphore sem_;
  Barrier barrier_;

  std::vector<BoundArg> bound_;
  std::vector<ArgValue> arg_values_;
  std::unordered_map<std::string, int> arg_index_;

  // Flat per-thread storage; each thread holds its own outstanding action.
  std::vector<Thread> threads_;
  std::vector<char> has_pending_;
  std::vector<char> started_;
  std::vector<Event> heap_;
  std::uint64_t seq_ = 0;
  int finished_count_ = 0;
  /// Direct dispatch and the batching horizon; off in reference mode.
  bool batching_ = true;
  std::vector<ThreadStats> stats_;
  FastPathStats fast_stats_;
  FastForwardStats ff_stats_;
};

}  // namespace hlsprof::sim
