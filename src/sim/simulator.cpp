#include "sim/simulator.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "telemetry/telemetry.hpp"

namespace hlsprof::sim {

cycle_t SimResult::total_stall_cycles() const {
  cycle_t s = 0;
  for (const auto& t : threads) s += t.stall_cycles;
  return s;
}

long long SimResult::total_fp_ops() const {
  long long s = 0;
  for (const auto& t : threads) s += t.fp_ops;
  return s;
}

Simulator::Simulator(const hls::Design& design, SimParams params,
                     std::size_t mem_capacity)
    : d_(design),
      params_(params),
      prog_(design, params_),
      mem_(params.dram, mem_capacity),
      sem_(design.kernel.num_locks, params.sem),
      barrier_(design.kernel.num_threads, params.host.barrier_release_latency) {
  const auto& k = d_.kernel;
  HLSPROF_CHECK(k.num_threads >= 1 && k.num_threads <= 64,
                "num_threads out of supported range [1,64]");
  bound_.resize(k.args.size());
  arg_values_.resize(k.args.size());
  arg_index_.reserve(k.args.size());
  for (std::size_t i = 0; i < k.args.size(); ++i) {
    const ir::Arg& a = k.args[i];
    arg_index_.emplace(a.name, static_cast<int>(i));
    if (a.is_pointer) {
      const std::size_t bytes =
          std::size_t(a.count) * std::size_t(a.elem_type.scalar_bytes());
      bound_[i].value.is_pointer = true;
      bound_[i].value.base = mem_.allocate(a.name, bytes);
    }
  }
}

int Simulator::arg_index(const std::string& name) const {
  const auto it = arg_index_.find(name);
  if (it != arg_index_.end()) return it->second;
  fail("no kernel argument named '" + name + "'");
}

void Simulator::bind_pointer(const std::string& name, void* data,
                             std::size_t elems, ir::Scalar expect) {
  const int idx = arg_index(name);
  const ir::Arg& a = d_.kernel.args[static_cast<std::size_t>(idx)];
  HLSPROF_CHECK(a.is_pointer, "'" + name + "' is not a pointer argument");
  HLSPROF_CHECK(a.elem_type.scalar == expect,
                "'" + name + "' element type mismatch");
  HLSPROF_CHECK(elems >= std::size_t(a.count),
                strf("host buffer for '%s' too small (%zu < %lld mapped)",
                     name.c_str(), elems, static_cast<long long>(a.count)));
  BoundArg& b = bound_[static_cast<std::size_t>(idx)];
  b.host = data;
  b.host_elems = elems;
  b.bound = true;
}

void Simulator::bind_f32(const std::string& name, std::span<float> host) {
  bind_pointer(name, host.data(), host.size(), ir::Scalar::f32);
}
void Simulator::bind_f64(const std::string& name, std::span<double> host) {
  bind_pointer(name, host.data(), host.size(), ir::Scalar::f64);
}
void Simulator::bind_i32(const std::string& name,
                         std::span<std::int32_t> host) {
  bind_pointer(name, host.data(), host.size(), ir::Scalar::i32);
}
void Simulator::bind_i64(const std::string& name,
                         std::span<std::int64_t> host) {
  bind_pointer(name, host.data(), host.size(), ir::Scalar::i64);
}

void Simulator::set_arg(const std::string& name, std::int64_t v) {
  const int idx = arg_index(name);
  const ir::Arg& a = d_.kernel.args[static_cast<std::size_t>(idx)];
  HLSPROF_CHECK(!a.is_pointer && a.elem_type.is_int(),
                "'" + name + "' is not a scalar integer argument");
  bound_[static_cast<std::size_t>(idx)].value.i = v;
  bound_[static_cast<std::size_t>(idx)].bound = true;
}

void Simulator::set_arg(const std::string& name, double v) {
  const int idx = arg_index(name);
  const ir::Arg& a = d_.kernel.args[static_cast<std::size_t>(idx)];
  HLSPROF_CHECK(!a.is_pointer && a.elem_type.is_float(),
                "'" + name + "' is not a scalar float argument");
  bound_[static_cast<std::size_t>(idx)].value.f = v;
  bound_[static_cast<std::size_t>(idx)].bound = true;
}

addr_t Simulator::device_base(const std::string& name) const {
  const int idx = arg_index(name);
  HLSPROF_CHECK(d_.kernel.args[static_cast<std::size_t>(idx)].is_pointer,
                "'" + name + "' is not a pointer argument");
  return bound_[static_cast<std::size_t>(idx)].value.base;
}

cycle_t Simulator::transfer_cycles(std::size_t bytes) const {
  // Integer ceil-division — the floating-point std::ceil formulation
  // loses exactness for large transfers. Fractional bandwidths below one
  // byte per cycle clamp to one.
  const auto bpc = std::max<std::size_t>(
      1, static_cast<std::size_t>(params_.host.pcie_bytes_per_cycle));
  return params_.host.transfer_setup + cycle_t((bytes + bpc - 1) / bpc);
}

cycle_t Simulator::copy_in(cycle_t t) {
  const auto& k = d_.kernel;
  for (std::size_t i = 0; i < k.args.size(); ++i) {
    const ir::Arg& a = k.args[i];
    if (!a.is_pointer) {
      HLSPROF_CHECK(bound_[i].bound,
                    "scalar argument '" + a.name + "' was never set");
      continue;
    }
    HLSPROF_CHECK(bound_[i].bound || a.map == ir::MapDir::alloc,
                  "pointer argument '" + a.name + "' was never bound");
    const std::size_t bytes =
        std::size_t(a.count) * std::size_t(a.elem_type.scalar_bytes());
    if (a.map == ir::MapDir::to || a.map == ir::MapDir::tofrom) {
      mem_.write_bytes(bound_[i].value.base, bound_[i].host, bytes);
      const cycle_t begin = t;
      t += transfer_cycles(bytes);
      transfers_.push_back(HostTransfer{a.name, true, begin, t, bytes});
    }
  }
  return t;
}

cycle_t Simulator::copy_out(cycle_t t) {
  const auto& k = d_.kernel;
  for (std::size_t i = 0; i < k.args.size(); ++i) {
    const ir::Arg& a = k.args[i];
    if (!a.is_pointer) continue;
    if (a.map == ir::MapDir::from || a.map == ir::MapDir::tofrom) {
      const std::size_t bytes =
          std::size_t(a.count) * std::size_t(a.elem_type.scalar_bytes());
      mem_.read_bytes(bound_[i].value.base, bound_[i].host, bytes);
      const cycle_t begin = t;
      t += transfer_cycles(bytes);
      transfers_.push_back(HostTransfer{a.name, false, begin, t, bytes});
    }
  }
  return t;
}

void Simulator::push_event(cycle_t t, thread_id_t tid) {
  heap_.push_back(make_event(t, tid));
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
}

Simulator::Event Simulator::pop_event() {
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
  const Event ev = heap_.back();
  heap_.pop_back();
  return ev;
}

Simulator::Event Simulator::push_pop_event(cycle_t t, thread_id_t tid) {
  const Event ev = make_event(t, tid);
  // (time, seq) is a strict order, so either the new event pops at once
  // or the root does and the new event sifts down from the root's place.
  if (heap_.empty() || !(ev > heap_.front())) return ev;
  const Event top = heap_.front();
  const std::size_t n = heap_.size();
  std::size_t i = 0;
  for (;;) {
    std::size_t c = 2 * i + 1;
    if (c >= n) break;
    if (c + 1 < n && heap_[c] > heap_[c + 1]) ++c;
    if (!(ev > heap_[c])) break;
    heap_[i] = heap_[c];
    i = c;
  }
  heap_[i] = ev;
  return top;
}

inline void Simulator::emit_state(SimHooks* hooks, thread_id_t tid,
                                  ThreadState s, cycle_t t) {
  if (hooks != nullptr) hooks->on_state(tid, s, t);
}

inline void Simulator::advance(thread_id_t tid, bool allow_batching) {
  Thread& ti = threads_[tid];
  // Batching horizon: the earliest event any *other* thread has pending.
  // Memory requests strictly below it can commit inline without changing
  // the global commit order (parked threads can only be re-scheduled at or
  // after that horizon, by an action that itself ends the resume).
  ti.set_mem_horizon(allow_batching
                         ? (heap_.empty() ? kNoCycle : heap_.front().time())
                         : 0);
  ti.resume();
  has_pending_[tid] = 1;
}

void Simulator::start_thread(thread_id_t tid, cycle_t t, SimHooks* hooks) {
  started_[tid] = 1;
  emit_state(hooks, tid, ThreadState::running, t);
  threads_[tid].start(t);
  advance(tid, batching_);
}

Simulator::Commit Simulator::commit_action(thread_id_t tid, SimHooks* hooks) {
  has_pending_[tid] = 0;
  const Action& a = threads_[tid].action();
  switch (a.kind) {
    case Action::Kind::mem:
      threads_[tid].commit_mem();
      advance(tid, batching_);
      return Commit::advanced;
    case Action::Kind::acquire: {
      emit_state(hooks, tid, ThreadState::spinning, a.time);
      const auto grant = sem_.acquire(a.id, tid, a.time);
      if (!grant.has_value()) {
        return Commit::parked;  // the grant arrives from a future release
      }
      emit_state(hooks, tid, ThreadState::critical, *grant);
      threads_[tid].lock_granted(*grant);
      advance(tid, batching_);
      return Commit::advanced;
    }
    case Action::Kind::release: {
      const auto r = sem_.release(a.id, tid, a.time);
      emit_state(hooks, tid, ThreadState::running, a.time);
      if (r.granted.has_value()) {
        const auto [waiter, gt] = *r.granted;
        emit_state(hooks, waiter, ThreadState::critical, gt);
        threads_[waiter].lock_granted(gt);
        // The waiter resumes before this thread's next action time is
        // known, so its first resume must not batch past the heap.
        advance(waiter, false);
        push_event(threads_[waiter].action().time, waiter);
      }
      threads_[tid].release_done(r.release_done);
      advance(tid, batching_);
      return Commit::advanced;
    }
    case Action::Kind::barrier: {
      emit_state(hooks, tid, ThreadState::spinning, a.time);
      auto done = barrier_.arrive(tid, a.time);
      if (done.has_value()) {
        const auto& [when, released] = *done;
        for (thread_id_t w : released) {
          emit_state(hooks, w, ThreadState::running, when);
          threads_[w].barrier_released(when);
          advance(w, false);
          push_event(threads_[w].action().time, w);
        }
      }
      // The arriving thread's own continuation (when it is the releaser)
      // was pushed with the rest of the released set above.
      return Commit::parked;
    }
    case Action::Kind::finished: {
      emit_state(hooks, tid, ThreadState::idle, a.time);
      ThreadStats& st = stats_[tid];
      st.end = a.time;
      st.stall_cycles = threads_[tid].stall_cycles();
      st.int_ops = threads_[tid].int_ops();
      st.fp_ops = threads_[tid].fp_ops();
      st.ext_loads = threads_[tid].ext_loads();
      st.ext_stores = threads_[tid].ext_stores();
      ++finished_count_;
      return Commit::finished;
    }
  }
  fail("unreachable action kind");
}

void Simulator::event_loop(SimHooks* hooks) {
  if (heap_.empty()) return;
  Event ev = pop_event();
  for (;;) {
    check_cycle_limit(params_, ev.tid(), ev.time());
    const thread_id_t tid = ev.tid();
    Commit c;
    if (!started_[tid]) {
      start_thread(tid, ev.time(), hooks);
      c = Commit::advanced;
    } else {
      HLSPROF_CHECK(has_pending_[tid], "event without pending action");
      c = commit_action(tid, hooks);
    }

    // Direct dispatch: while this thread's next action is strictly earlier
    // than every other pending event, commit it inline instead of a heap
    // round-trip. Strict `<`: an equal-time event already in the heap
    // carries an older sequence number and must win the tie, exactly as
    // it would in reference mode.
    while (batching_ && c == Commit::advanced) {
      const cycle_t next_t = threads_[tid].action().time;
      if (!heap_.empty() && next_t >= heap_.front().time()) break;
      check_cycle_limit(params_, tid, next_t);
      ++fast_stats_.direct_dispatch;
      c = commit_action(tid, hooks);
    }
    if (c == Commit::advanced) {
      ev = push_pop_event(threads_[tid].action().time, tid);
    } else if (heap_.empty()) {
      return;
    } else {
      ev = pop_event();
    }
  }
}

SimResult Simulator::run(SimHooks* hooks) {
  // Telemetry observes the host cost of the run (coarse, per-run only —
  // nothing inside the event loop); simulated results are untouched.
  auto& reg = telemetry::Registry::global();
  telemetry::Span span(reg, "sim.run", "sim");
  const bool telemetry_on = reg.enabled();
  const std::uint64_t host_t0 = telemetry_on ? reg.now_us() : 0;

  const auto& k = d_.kernel;
  const int T = k.num_threads;

  for (std::size_t i = 0; i < bound_.size(); ++i) {
    arg_values_[i] = bound_[i].value;
  }

  SimResult result;
  transfers_.clear();
  result.kernel_start = copy_in(0);

  // All threads are idle until the host starts them, one by one, through
  // the Avalon slave (paper §V-D: software start overhead).
  threads_.clear();
  threads_.reserve(static_cast<std::size_t>(T));
  has_pending_.assign(static_cast<std::size_t>(T), 0);
  started_.assign(static_cast<std::size_t>(T), 0);
  stats_.assign(static_cast<std::size_t>(T), ThreadStats{});
  heap_.clear();
  seq_ = 0;
  finished_count_ = 0;
  fast_stats_ = FastPathStats{};
  batching_ = !params_.reference_event_loop;

  for (int t = 0; t < T; ++t) {
    threads_.emplace_back(prog_, arg_values_, thread_id_t(t), mem_, params_,
                          hooks);
    emit_state(hooks, thread_id_t(t), ThreadState::idle, 0);
    const cycle_t start_at =
        result.kernel_start +
        cycle_t(t + 1) * params_.host.thread_start_interval;
    stats_[static_cast<std::size_t>(t)].start = start_at;
    push_event(start_at, thread_id_t(t));
  }

  ff_stats_ = FastForwardStats{};
  event_loop(hooks);
  // Without batching no thread commits inline or fast-forwards, so the
  // reference mode leaves every count below at zero.
  double residual_sum = 0.0;
  for (const Thread& ti : threads_) {
    fast_stats_.batched_mem += static_cast<std::uint64_t>(ti.batched_mem());
    const ff::FfStats& fs = ti.ff_stats();
    ff_stats_.phases += fs.phases;
    ff_stats_.cycles_skipped += fs.cycles_skipped;
    ff_stats_.model_rejects += fs.model_rejects;
    residual_sum += fs.residual_sum;
  }
  if (ff_stats_.phases > 0) {
    ff_stats_.model_residual = residual_sum / double(ff_stats_.phases);
  }

  if (finished_count_ != T) {
    fail(strf("deadlock: %d of %d threads never finished (%zu spinning on "
              "the semaphore, %zu parked at a barrier)",
              T - finished_count_, T, sem_.waiting(), barrier_.parked()));
  }

  result.kernel_done = 0;
  for (const auto& st : stats_) {
    result.kernel_done = std::max(result.kernel_done, st.end);
  }
  result.kernel_cycles = result.kernel_done - result.kernel_start;
  if (hooks != nullptr) hooks->on_finish(result.kernel_done);
  result.total_cycles = copy_out(result.kernel_done);
  result.threads = stats_;
  result.transfers = transfers_;
  result.dram_reads = mem_.reads();
  result.dram_writes = mem_.writes();
  result.dram_bytes_read = mem_.bytes_read();
  result.dram_bytes_written = mem_.bytes_written();
  const long long accesses = mem_.row_hits() + mem_.row_misses();
  result.row_hit_rate =
      accesses == 0 ? 0.0 : double(mem_.row_hits()) / double(accesses);

  if (telemetry_on) {
    const std::uint64_t host_us = reg.now_us() - host_t0;
    reg.counter("sim.runs").add(1);
    reg.counter("sim.cycles", "cycles")
        .add(static_cast<long long>(result.total_cycles));
    reg.counter("sim.host_us", "us").add(static_cast<long long>(host_us));
    reg.counter("sim.direct_dispatch")
        .add(static_cast<long long>(fast_stats_.direct_dispatch));
    reg.counter("sim.batched_mem")
        .add(static_cast<long long>(fast_stats_.batched_mem));
    if (params_.fast_forward) {
      reg.counter("sim.ff_phases")
          .add(static_cast<long long>(ff_stats_.phases));
      reg.counter("sim.ff_cycles_skipped", "cycles")
          .add(static_cast<long long>(ff_stats_.cycles_skipped));
      if (ff_stats_.phases > 0) {
        reg.gauge("sim.ff_model_residual").set(ff_stats_.model_residual);
      }
    }
    if (host_us > 0) {
      reg.gauge("sim.cycles_per_sec", "cycles/s")
          .set(double(result.total_cycles) / (double(host_us) / 1e6));
    }
  }
  return result;
}

}  // namespace hlsprof::sim
