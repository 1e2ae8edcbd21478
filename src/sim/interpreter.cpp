#include "sim/interpreter.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace hlsprof::sim {

using ir::Op;
using ir::Opcode;
using ir::Region;
using ir::Stmt;
using ir::ValueId;

ThreadInterp::ThreadInterp(const hls::Design& design,
                           const std::vector<ArgValue>& args, thread_id_t tid,
                           ExternalMemory& mem, const SimParams& params,
                           SimHooks* hooks)
    : d_(design),
      k_(design.kernel),
      args_(args),
      tid_(tid),
      mem_(mem),
      params_(params),
      hooks_(hooks),
      ff_on_(params.fast_forward) {
  HLSPROF_CHECK(args.size() == k_.args.size(),
                "argument binding count mismatch");
  values_.resize(k_.ops.size());
  vars_.resize(k_.vars.size());
  vals_ = values_.data();
  varp_ = vars_.data();
  ops_ = k_.ops.data();
  op_start_ = d_.op_start.data();
  op_latency_ = d_.op_latency.data();
  frames_.reserve(16);  // typical nesting depth; avoids realloc churn
  locals_.reserve(k_.local_arrays.size());
  for (const auto& arr : k_.local_arrays) {
    locals_.emplace_back(static_cast<std::size_t>(arr.size), 0.0);
  }
}

void ThreadInterp::start(cycle_t t) {
  HLSPROF_CHECK(!started_, "thread already started");
  started_ = true;
  time_ = t;
  last_flush_ = t;
  Frame f;
  f.kind = Frame::Kind::region;
  f.region = &k_.body;
  frames_.push_back(std::move(f));
}

ThreadInterp::Frame* ThreadInterp::pipeline_frame() {
  return active_pipe_ >= 0 ? &frames_[static_cast<std::size_t>(active_pipe_)]
                           : nullptr;
}

Action ThreadInterp::resume() {
  HLSPROF_CHECK(started_ && !finished_, "resume on a non-running thread");
  HLSPROF_CHECK(suspend_ == Suspend::none,
                "resume while waiting for a response");
  Action a;
  while (true) {
    if (frames_.empty()) {
      flush_compute(time_);
      finished_ = true;
      a.kind = Action::Kind::finished;
      a.time = time_;
      return a;
    }
    if (step(a)) return a;
  }
}

bool ThreadInterp::step(Action& out) {
  Frame& f = frames_.back();
  switch (f.kind) {
    case Frame::Kind::region: {
      if (f.idx >= f.region->stmts.size()) {
        frames_.pop_back();
        return false;
      }
      const Stmt& s = f.region->stmts[f.idx];
      if (const auto* os = std::get_if<ir::OpStmt>(&s)) {
        return exec_op(os->op, out);  // idx advanced inside / by mem_done
      }
      if (const auto* loop = std::get_if<ir::LoopStmt>(&s)) {
        ++f.idx;
        Frame lf;
        lf.kind = Frame::Kind::loop;
        lf.loop = loop;
        lf.linfo = &d_.loop(loop->id);
        frames_.push_back(std::move(lf));
        return false;
      }
      if (const auto* iff = std::get_if<ir::IfStmt>(&s)) {
        ++f.idx;
        const bool taken = scalar_i(iff->cond) != 0;
        const Region* r = taken ? iff->then_body.get() : iff->else_body.get();
        Frame rf;
        rf.kind = Frame::Kind::region;
        rf.region = r;
        frames_.push_back(std::move(rf));
        return false;
      }
      if (const auto* crit = std::get_if<ir::CriticalStmt>(&s)) {
        ++f.idx;
        pending_crit_ = crit;
        out = Action{};
        out.kind = Action::Kind::acquire;
        out.time = time_;
        out.lock_id = crit->lock_id;
        suspend_ = Suspend::acquire;
        flush_compute(time_);
        return true;
      }
      if (const auto* con = std::get_if<ir::ConcurrentStmt>(&s)) {
        ++f.idx;
        flush_compute(time_);  // branch replay rewinds the clock
        Frame cf;
        cf.kind = Frame::Kind::concurrent;
        cf.con = con;
        cf.con_t0 = time_;
        cf.con_max_end = time_;
        cf.branch_order = &concurrent_order(*con);
        const Region* first =
            con->branches[(*cf.branch_order)[0]].get();
        frames_.push_back(std::move(cf));
        Frame rf;
        rf.kind = Frame::Kind::region;
        rf.region = first;
        frames_.push_back(std::move(rf));
        return false;
      }
      if (const auto* bar = std::get_if<ir::BarrierStmt>(&s)) {
        ++f.idx;
        out = Action{};
        out.kind = Action::Kind::barrier;
        out.time = time_;
        out.barrier_id = bar->barrier_id;
        suspend_ = Suspend::barrier;
        flush_compute(time_);
        return true;
      }
      fail("unhandled statement kind");
    }

    case Frame::Kind::loop: {
      if (!f.inited) {
        f.inited = true;
        f.iv_cur = scalar_i(f.loop->init);
        f.iv_init = f.iv_cur;
        f.bound_v = scalar_i(f.loop->bound);
        f.step_v = scalar_i(f.loop->step);
        HLSPROF_CHECK(f.step_v > 0, "loop step must be positive (kernel '" +
                                        k_.name + "', loop '" +
                                        f.loop->name + "')");
        varp_[static_cast<std::size_t>(f.loop->induction)].i[0] = f.iv_cur;
        time_ += params_.ctrl.loop_entry_overhead;
        f.entry_time = time_;
        f.loop_end = time_;
      } else if (f.in_iteration) {
        // An iteration's body just completed.
        f.in_iteration = false;
        if (f.linfo->pipelined) {
          f.loop_end = std::max(
              f.loop_end,
              f.iter_base + f.iter_stall + cycle_t(f.linfo->depth));
        }
        f.iv_cur += f.step_v;
        varp_[static_cast<std::size_t>(f.loop->induction)].i[0] = f.iv_cur;
      }
      // `f` may dangle once begin_iteration_or_exit pushes the body frame
      // (frames_ can reallocate), so remember the loop frame's index.
      const std::size_t loop_at = frames_.size() - 1;
      begin_iteration_or_exit(f);
      if (frames_.size() == loop_at + 2 && mem_horizon_ != 0) {
        const Frame& lf = frames_[loop_at];
        if (lf.linfo->pipelined) {
          const std::vector<ValueId>* ids = simple_body(*lf.loop->body);
          if (ids != nullptr) return run_batched_iterations(loop_at, *ids, out);
        }
      }
      return false;
    }

    case Frame::Kind::critical: {
      if (!f.crit_body_done) {
        f.crit_body_done = true;
        out = Action{};
        out.kind = Action::Kind::release;
        out.time = time_;
        out.lock_id = f.crit->lock_id;
        suspend_ = Suspend::release;
        flush_compute(time_);
        return true;
      }
      fail("critical frame stepped after release");
    }

    case Frame::Kind::concurrent: {
      // A branch just completed: flush its op counts at its own end time,
      // then replay the next branch from the concurrent start time (the
      // datapath executes the branches simultaneously).
      flush_compute(time_);
      f.con_max_end = std::max(f.con_max_end, time_);
      ++f.branch_pos;
      if (f.branch_pos < f.branch_order->size()) {
        time_ = f.con_t0;
        last_flush_ = f.con_t0;
        const Region* next =
            f.con->branches[(*f.branch_order)[f.branch_pos]].get();
        frames_.push_back([&] {
          Frame rf;
          rf.kind = Frame::Kind::region;
          rf.region = next;
          return rf;
        }());
      } else {
        time_ = f.con_max_end;
        last_flush_ = f.con_max_end;
        frames_.pop_back();
      }
      return false;
    }
  }
  fail("unreachable frame kind");
}

void ThreadInterp::begin_iteration_or_exit(Frame& f) {
  const bool more = f.iv_cur < f.bound_v;
  if (!more) {
    if (f.linfo->pipelined) {
      time_ = std::max(time_, f.loop_end);
      active_pipe_ = -1;
    }
    flush_compute(time_);
    frames_.pop_back();
    return;
  }
  if (f.linfo->pipelined) {
    if (f.first_iter) {
      f.iter_base = time_;
    } else {
      f.iter_base += cycle_t(f.linfo->ii) + f.iter_stall;
    }
    f.first_iter = false;
    f.iter_stall = 0;
    active_pipe_ = static_cast<int>(frames_.size() - 1);
  } else {
    time_ += params_.ctrl.loop_iter_overhead;
  }
  f.in_iteration = true;
  Frame rf;
  rf.kind = Frame::Kind::region;
  rf.region = f.loop->body.get();
  frames_.push_back(std::move(rf));
}

const std::vector<ValueId>* ThreadInterp::simple_body(const Region& r) {
  auto [it, inserted] = simple_body_.try_emplace(&r);
  if (inserted) {
    for (const Stmt& s : r.stmts) {
      if (const auto* os = std::get_if<ir::OpStmt>(&s)) {
        it->second.push_back(os->op);
      } else {
        it->second.clear();
        break;
      }
    }
  }
  // A partial decode (non-op statement hit) leaves fewer ids than stmts.
  return it->second.size() == r.stmts.size() ? &it->second : nullptr;
}

bool ThreadInterp::run_batched_iterations(std::size_t loop_at,
                                          const std::vector<ValueId>& ids,
                                          Action& out) {
  // PRE: frames_[loop_at] is a pipelined loop frame mid-iteration and
  // frames_.back() is its body region frame; active_pipe_ == loop_at.
  // Cycle-exactness: every effect below reuses the generic machinery's
  // code (eval_pure, exec_op, apply_mem, the loop-frame arithmetic from
  // step/begin_iteration_or_exit) — only the dispatch around it is gone.
  const std::size_t n = ids.size();
  ff::LoopPhase* ph = ff_on_ ? ff_phase(frames_[loop_at], ids) : nullptr;
  for (;;) {
    // Stable references: the tight loop never grows frames_, so neither
    // the body frame nor the loop frame can move until we return.
    Frame& rf = frames_.back();
    Frame& lf = frames_[loop_at];
    long long ff_int0 = 0;
    long long ff_fp0 = 0;
    if (ph != nullptr) {
      if (rf.idx == 0 && lf.iv_cur == lf.iv_init && lf.step_v > 0) {
        const std::int64_t trip =
            lf.bound_v > lf.iv_init
                ? (lf.bound_v - lf.iv_init + lf.step_v - 1) / lf.step_v
                : 0;
        ph->begin_instance(trip, params_.ff);
        if (!ph->inst_active) ph = nullptr;  // decline backoff: sit out
      }
      if (ph != nullptr) {
        ph->begin_iteration(lf.iv_cur, rf.idx == 0);
        ff_int0 = acc_int_;
        ff_fp0 = acc_fp_;
      }
    }
    while (rf.idx < n) {
      const ValueId id = ids[rf.idx];
      const Op& op = op_at(id);
      const Opcode oc = op.opcode;
      if (oc == Opcode::load_ext || oc == Opcode::store_ext) {
        const cycle_t issue =
            lf.iter_base + cycle_t(op_start_[static_cast<std::size_t>(id)]) +
            lf.iter_stall;
        if (issue >= mem_horizon_) {
          // Another thread has an event at or before `issue`: hand the
          // request to the generic path, which re-derives it and returns
          // the Action for the event loop to commit in global order.
          return exec_op(id, out);
        }
        HLSPROF_CHECK(
            issue <= params_.max_cycles,
            strf("simulation exceeded max_cycles (livelock guard): thread "
                 "%d would issue a memory request at cycle %llu, past the "
                 "limit of %llu",
                 int(tid_), (unsigned long long)issue,
                 (unsigned long long)params_.max_cycles));
        const std::int64_t index = scalar_i(op.operands[0]);
        const addr_t addr = ext_addr(op, index);
        const auto bytes = static_cast<std::uint32_t>(op.type.bytes());
        const bool is_write = oc == Opcode::store_ext;
        pending_op_ = id;
        pending_addr_ = addr;
        pending_issue_ = issue;
        const MemTiming tm = mem_.access(issue, addr, bytes, is_write);
        if (hooks_ != nullptr) {
          hooks_->on_mem(tid_, tm.accepted, bytes, is_write);
        }
        if (ph != nullptr) ph->note_mem(addr, tm.row_hit);
        ++batched_mem_;
        apply_mem(tm);  // advances rf.idx
      } else if (oc == Opcode::preload) {
        if (exec_op(id, out)) return true;  // batched inline or suspended
      } else {
        eval_pure(op, id);
        ++rf.idx;
      }
    }
    // Iteration complete: advance the loop frame exactly as the generic
    // loop case + begin_iteration_or_exit would, reusing the body frame
    // in place instead of popping and re-pushing it.
    lf.loop_end = std::max(
        lf.loop_end, lf.iter_base + lf.iter_stall + cycle_t(lf.linfo->depth));
    const std::int64_t iv_done = lf.iv_cur;
    const cycle_t iter_cycles = cycle_t(lf.linfo->ii) + lf.iter_stall;
    lf.iv_cur += lf.step_v;
    varp_[static_cast<std::size_t>(lf.loop->induction)].i[0] = lf.iv_cur;
    if (!(lf.iv_cur < lf.bound_v)) {
      if (ph != nullptr && ph->finish_instance(iter_cycles, params_.ff)) {
        ff_gate_model(lf, *ph);  // a calibration completed: model-check it
      }
      time_ = std::max(time_, lf.loop_end);
      active_pipe_ = -1;
      flush_compute(time_);
      frames_.pop_back();  // body region frame
      frames_.pop_back();  // the loop frame itself
      return false;
    }
    lf.iter_base += cycle_t(lf.linfo->ii) + lf.iter_stall;
    lf.iter_stall = 0;
    rf.idx = 0;
    if (ph != nullptr &&
        ph->end_iteration(iv_done, lf.step_v, iter_cycles,
                          acc_int_ - ff_int0, acc_fp_ - ff_fp0,
                          params_.ff)) {
      if (ph->cand_needs_gate) {
        // Fresh in-instance window calibration: model-check it first.
        ff_gate_model(lf, *ph);
        ph->cand_needs_gate = false;
      }
      if (ph->cand->model_ok) ff_try_jump(lf, *ph);
    }
  }
}

ff::LoopPhase* ThreadInterp::ff_phase(const Frame& lf,
                                      const std::vector<ValueId>& ids) {
  auto [it, inserted] = ff_phases_.try_emplace(lf.loop);
  ff::LoopPhase& ph = it->second;
  if (inserted) {
    ph.eligible = lf.linfo->pipelined;
    for (const ValueId id : ids) {
      const Op& op = op_at(id);
      if (op.opcode == Opcode::preload) {
        // Burst requests have their own bus master and line-granular
        // timing; steady-state prediction only covers plain requests.
        ph.eligible = false;
        break;
      }
      if (op.opcode == Opcode::load_ext || op.opcode == Opcode::store_ext) {
        ff::OpTrack ot;
        ot.bytes = static_cast<std::uint32_t>(op.type.bytes());
        ot.is_write = op.opcode == Opcode::store_ext;
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

void ThreadInterp::ff_gate_model(const Frame& lf, ff::LoopPhase& ph) {
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
  const int mult = d_.options.thread_reordering ? 1 : int(k_.num_threads);
  const double model =
      ff::predict_cpi(params_.dram, ph, lf.linfo->ii,
                      d_.options.lib.ext_assumed_min, mult, c.hit_rate);
  c.model_residual = std::fabs(model - span_cpi) / std::max(1.0, span_cpi);
  c.model_ok = c.model_residual <= params_.ff.model_gate;
  if (!c.model_ok) ++ff_stats_.model_rejects;
}

void ThreadInterp::ff_try_jump(Frame& lf, ff::LoopPhase& ph) {
  const FastForwardParams& p = params_.ff;
  const ff::Calibration& c = *ph.cand;  // validated by end_iteration
  const std::int64_t skip = c.span_iters;
  const cycle_t delta = c.span_cycles;
  const cycle_t b0 = lf.iter_base;
  // The synthesized span must stay strictly below the batching horizon
  // (the earliest other pending event) and the livelock guard; a jump we
  // cannot take degrades the instance to an exact re-calibrating run.
  cycle_t limit = params_.max_cycles;
  if (mem_horizon_ != kNoCycle && mem_horizon_ < limit) limit = mem_horizon_;
  if (delta < p.min_skip_cycles || b0 >= limit || delta > limit - b0) {
    ph.jump_declined();
    return;
  }
  const cycle_t t1 = b0 + delta;

  // -- apply the jump ----------------------------------------------------
  // Below the horizon this thread provably runs solo, so the whole jump
  // is local: the loop frame, this thread's counters, and the shared
  // memory model's pipeline position. No other thread's state moves.
  lf.iv_cur += lf.step_v * skip;
  varp_[static_cast<std::size_t>(lf.loop->induction)].i[0] = lf.iv_cur;
  lf.iter_base = t1;
  // loop_end needs no synthetic update: the margin iterations run for
  // real at larger bases and dominate the max at loop exit.

  const cycle_t ii_span = cycle_t(skip) * cycle_t(lf.linfo->ii);
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
      hooks_->on_compute(tid_, skip_int, skip_fp, b0, t1);
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
  ph.after_jump(lf.iv_cur, skip);
  ff_project_rows(ph, skip);

  ++ff_stats_.phases;
  ff_stats_.cycles_skipped += delta;
  ff_stats_.residual_sum += c.model_residual;
}

void ThreadInterp::ff_project_rows(const ff::LoopPhase& ph,
                                   std::int64_t skip) {
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
  struct Open {
    std::int64_t k;   // last-touch iteration index
    std::size_t op;   // body order breaks ties (the later op wins)
    std::int64_t row;
  };
  std::vector<Open> opens;
  opens.reserve(ph.ops.size() * std::size_t(nb));
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
  std::sort(opens.begin(), opens.end(), [](const Open& a, const Open& b) {
    return a.k != b.k ? a.k < b.k : a.op < b.op;
  });
  for (const Open& o : opens) {
    mem_.ff_touch_row(addr_t(o.row) * params_.dram.row_bytes);
  }
}

bool ThreadInterp::exec_op(ValueId id, Action& out) {
  const Op& op = op_at(id);
  if (op.opcode == Opcode::preload) {
    const std::int64_t src_index = scalar_i(op.operands[0]);
    const std::int64_t dst_index = scalar_i(op.operands[1]);
    const std::int64_t count = scalar_i(op.operands[2]);
    const ir::Arg& arg = k_.args[static_cast<std::size_t>(op.arg)];
    const auto& arr = k_.local_arrays[static_cast<std::size_t>(op.array)];
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
      ++frames_.back().idx;
      return false;
    }
    Frame* pf = pipeline_frame();
    const cycle_t issue =
        pf ? pf->iter_base +
                 cycle_t(op_start_[static_cast<std::size_t>(id)]) +
                 pf->iter_stall
           : time_;
    if (pf == nullptr) flush_compute(issue);
    const int esz = arg.elem_type.scalar_bytes();
    const addr_t addr = args_[static_cast<std::size_t>(op.arg)].base +
                        addr_t(src_index) * addr_t(esz);
    const std::uint32_t bytes = std::uint32_t(count * esz);
    pending_op_ = id;
    pending_addr_ = addr;
    pending_issue_ = issue;
    pending_dst_index_ = dst_index;
    pending_count_ = count;
    if (issue < mem_horizon_) {
      // Batched fast path: no other thread has an event before `issue`,
      // so the burst commits against the memory model inline — exactly
      // the sub-requests the event loop would have issued.
      HLSPROF_CHECK(issue <= params_.max_cycles,
                    "simulation exceeded max_cycles (livelock guard)");
      const MemTiming tm = mem_.burst(issue, addr, bytes);
      if (hooks_ != nullptr) hooks_->on_mem(tid_, tm.accepted, bytes, false);
      ++batched_mem_;
      apply_mem(tm);
      return false;
    }
    out = Action{};
    out.kind = Action::Kind::mem;
    out.time = issue;
    out.addr = addr;
    out.bytes = bytes;
    out.is_write = false;
    out.is_preload = true;
    suspend_ = Suspend::mem;
    return true;
  }
  if (op.opcode == Opcode::load_ext || op.opcode == Opcode::store_ext) {
    const std::int64_t index = scalar_i(op.operands[0]);
    const addr_t addr = ext_addr(op, index);
    // Pipelined iterations issue VLOs at their scheduled offsets, shifted
    // by the stalls already accumulated this iteration: all of a thread's
    // external accesses multiplex onto one blocking read and one blocking
    // write port (paper §IV-B2c), so each overrun stalls the stage and
    // delays the iteration's later VLOs. Memory-level parallelism comes
    // from the *threads* (Nymble-MT), not from within a thread.
    Frame* pf = pipeline_frame();
    const cycle_t issue =
        pf ? pf->iter_base +
                 cycle_t(op_start_[static_cast<std::size_t>(id)]) +
                 pf->iter_stall
           : time_;
    if (pf == nullptr) flush_compute(issue);
    const std::uint32_t bytes = static_cast<std::uint32_t>(op.type.bytes());
    const bool is_write = op.opcode == Opcode::store_ext;
    pending_op_ = id;
    pending_addr_ = addr;
    pending_issue_ = issue;
    if (issue < mem_horizon_) {
      // Batched fast path: commit the request inline (see set_mem_horizon).
      // The strict `<` preserves the event loop's (time, seq) tie-break:
      // an equal-time event already in the heap would have popped first.
      HLSPROF_CHECK(issue <= params_.max_cycles,
                    "simulation exceeded max_cycles (livelock guard)");
      const MemTiming tm = mem_.access(issue, addr, bytes, is_write);
      if (hooks_ != nullptr) {
        hooks_->on_mem(tid_, tm.accepted, bytes, is_write);
      }
      ++batched_mem_;
      apply_mem(tm);
      return false;
    }
    out = Action{};
    out.kind = Action::Kind::mem;
    out.time = issue;
    out.addr = addr;
    out.bytes = bytes;
    out.is_write = is_write;
    suspend_ = Suspend::mem;
    return true;
  }
  eval_pure(op, id);
  if (pipeline_frame() == nullptr) {
    time_ += cycle_t(op_latency_[static_cast<std::size_t>(id)]);
  }
  ++frames_.back().idx;
  return false;
}

void ThreadInterp::mem_done(const MemTiming& timing) {
  HLSPROF_CHECK(suspend_ == Suspend::mem, "unexpected mem_done");
  suspend_ = Suspend::none;
  apply_mem(timing);
}

/// Tail of a memory request: stall accounting, functional data movement,
/// and resuming the enclosing region. Reached from mem_done (event-loop
/// round trip) and from the batched inline path in exec_op — keeping it
/// shared is what makes the two execution modes cycle-exact.
void ThreadInterp::apply_mem(const MemTiming& timing) {
  const Op& op = op_at(pending_op_);
  const cycle_t assumed = cycle_t(d_.options.lib.ext_assumed_min);
  const cycle_t expected = pending_issue_ + assumed;
  cycle_t stall = timing.complete > expected ? timing.complete - expected : 0;
  if (!d_.options.thread_reordering) {
    // Plain C-slow interleaving (no Nymble-MT reordering): the threads
    // march through the stages in fixed round-robin order, so one
    // thread's VLO overrun halts the wheel for everyone. First-order
    // model: each thread experiences the sum of all threads' stalls,
    // i.e. roughly num_threads times its own.
    stall *= cycle_t(k_.num_threads);
  }

  if (stall > 0) {
    stall_cycles_ += stall;
    if (hooks_ != nullptr) hooks_->on_stall(tid_, expected, stall);
  }
  Frame* pf = pipeline_frame();
  if (pf != nullptr) {
    pf->iter_stall += stall;
  } else {
    time_ = expected + stall;
  }

  // Functional data movement, committed in global time order.
  const int lanes = op.type.lanes;
  const int esz = op.type.scalar_bytes();
  if (op.opcode == Opcode::preload) {
    ++ext_loads_;
    const auto& arr = k_.local_arrays[static_cast<std::size_t>(op.array)];
    auto& store = locals_[static_cast<std::size_t>(op.array)];
    for (std::int64_t e = 0; e < pending_count_; ++e) {
      const addr_t a = pending_addr_ + addr_t(e) * addr_t(esz);
      double x = 0.0;
      switch (op.type.scalar) {
        case ir::Scalar::i32: x = double(mem_.read_scalar<std::int32_t>(a)); break;
        case ir::Scalar::i64: x = double(mem_.read_scalar<std::int64_t>(a)); break;
        case ir::Scalar::f32: x = double(mem_.read_scalar<float>(a)); break;
        case ir::Scalar::f64: x = mem_.read_scalar<double>(a); break;
      }
      if (arr.elem == ir::Scalar::f32) x = double(float(x));
      store[static_cast<std::size_t>(pending_dst_index_ + e)] = x;
    }
    pending_op_ = ir::kNoValue;
    HLSPROF_CHECK(!frames_.empty() &&
                      frames_.back().kind == Frame::Kind::region,
                  "mem_done with no active region");
    ++frames_.back().idx;
    return;
  }
  if (op.opcode == Opcode::load_ext) {
    ++ext_loads_;
    RtVal& v = val(pending_op_);
    if (params_.functional || op.type.is_int()) {
      for (int l = 0; l < lanes; ++l) {
        const addr_t a = pending_addr_ + addr_t(l) * addr_t(esz);
        switch (op.type.scalar) {
          case ir::Scalar::i32:
            v.i[static_cast<std::size_t>(l)] = mem_.read_scalar<std::int32_t>(a);
            break;
          case ir::Scalar::i64:
            v.i[static_cast<std::size_t>(l)] = mem_.read_scalar<std::int64_t>(a);
            break;
          case ir::Scalar::f32:
            v.f[static_cast<std::size_t>(l)] = mem_.read_scalar<float>(a);
            break;
          case ir::Scalar::f64:
            v.f[static_cast<std::size_t>(l)] = mem_.read_scalar<double>(a);
            break;
        }
      }
    }
  } else {
    ++ext_stores_;
    const RtVal& v = val(op.operands[1]);
    if (params_.functional || op.type.is_int()) {
      for (int l = 0; l < lanes; ++l) {
        const addr_t a = pending_addr_ + addr_t(l) * addr_t(esz);
        switch (op.type.scalar) {
          case ir::Scalar::i32:
            mem_.write_scalar<std::int32_t>(
                a, static_cast<std::int32_t>(v.i[static_cast<std::size_t>(l)]));
            break;
          case ir::Scalar::i64:
            mem_.write_scalar<std::int64_t>(a, v.i[static_cast<std::size_t>(l)]);
            break;
          case ir::Scalar::f32:
            mem_.write_scalar<float>(
                a, static_cast<float>(v.f[static_cast<std::size_t>(l)]));
            break;
          case ir::Scalar::f64:
            mem_.write_scalar<double>(a, v.f[static_cast<std::size_t>(l)]);
            break;
        }
      }
    }
  }

  pending_op_ = ir::kNoValue;
  // The enclosing region frame resumes at the next statement.
  HLSPROF_CHECK(!frames_.empty() &&
                    frames_.back().kind == Frame::Kind::region,
                "mem_done with no active region");
  ++frames_.back().idx;
}

void ThreadInterp::lock_granted(cycle_t t) {
  HLSPROF_CHECK(suspend_ == Suspend::acquire, "unexpected lock_granted");
  suspend_ = Suspend::none;
  time_ = std::max(time_, t);
  last_flush_ = std::max(last_flush_, time_);
  Frame cf;
  cf.kind = Frame::Kind::critical;
  cf.crit = pending_crit_;
  frames_.push_back(std::move(cf));
  Frame rf;
  rf.kind = Frame::Kind::region;
  rf.region = pending_crit_->body.get();
  frames_.push_back(std::move(rf));
  pending_crit_ = nullptr;
}

void ThreadInterp::release_done(cycle_t t) {
  HLSPROF_CHECK(suspend_ == Suspend::release, "unexpected release_done");
  suspend_ = Suspend::none;
  time_ = std::max(time_, t);
  HLSPROF_CHECK(!frames_.empty() &&
                    frames_.back().kind == Frame::Kind::critical,
                "release_done with no critical frame");
  frames_.pop_back();
}

void ThreadInterp::barrier_released(cycle_t t) {
  HLSPROF_CHECK(suspend_ == Suspend::barrier, "unexpected barrier_released");
  suspend_ = Suspend::none;
  time_ = std::max(time_, t);
  last_flush_ = std::max(last_flush_, time_);
}

const std::vector<std::size_t>& ThreadInterp::concurrent_order(
    const ir::ConcurrentStmt& con) {
  auto [it, inserted] = con_order_.try_emplace(&con);
  if (inserted) {
    // Run the branch that touches external memory first so its memory
    // requests are issued in nondecreasing global time (the other
    // branches replay from con_t0 but generate no shared events).
    std::vector<std::size_t>& order = it->second;
    order.resize(con.branches.size());
    for (std::size_t i = 0; i < con.branches.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return branch_has_ext(*con.branches[a]) >
                              branch_has_ext(*con.branches[b]);
                     });
  }
  return it->second;
}

bool ThreadInterp::branch_has_ext(const ir::Region& r) const {
  bool found = false;
  ir::for_each_region(r, [&](const ir::Region& sub) {
    for (const Stmt& s : sub.stmts) {
      if (const auto* os = std::get_if<ir::OpStmt>(&s)) {
        if (ir::is_vlo(k_.op(os->op).opcode)) found = true;
      }
    }
  });
  return found;
}

void ThreadInterp::flush_compute(cycle_t now) {
  if (acc_int_ == 0 && acc_fp_ == 0) {
    last_flush_ = std::max(last_flush_, now);
    return;
  }
  const cycle_t t0 = last_flush_;
  const cycle_t t1 = std::max(now, last_flush_ + 1);
  if (hooks_ != nullptr) {
    hooks_->on_compute(tid_, acc_int_, acc_fp_, t0, t1);
  }
  total_int_ops_ += acc_int_;
  total_fp_ops_ += acc_fp_;
  acc_int_ = 0;
  acc_fp_ = 0;
  last_flush_ = t1;
}

addr_t ThreadInterp::ext_addr(const Op& op, std::int64_t index) const {
  const ir::Arg& arg = k_.args[static_cast<std::size_t>(op.arg)];
  const int lanes = op.type.lanes;
  HLSPROF_CHECK(
      index >= 0 && index + lanes <= arg.count,
      strf("kernel '%s': out-of-bounds access to '%s' (index %lld + %d lanes "
           "exceeds mapped count %lld)",
           k_.name.c_str(), arg.name.c_str(), static_cast<long long>(index),
           lanes, static_cast<long long>(arg.count)));
  const ArgValue& av = args_[static_cast<std::size_t>(op.arg)];
  return av.base + addr_t(index) * addr_t(arg.elem_type.scalar_bytes());
}

void ThreadInterp::do_local_load(const Op& op, ValueId id) {
  const auto& arr = k_.local_arrays[static_cast<std::size_t>(op.array)];
  const std::int64_t index = scalar_i(op.operands[0]);
  const int lanes = op.type.lanes;
  HLSPROF_CHECK(index >= 0 && index + lanes <= arr.size,
                strf("kernel '%s': local array '%s' read out of bounds",
                     k_.name.c_str(), arr.name.c_str()));
  const auto& store = locals_[static_cast<std::size_t>(op.array)];
  RtVal& v = val(id);
  for (int l = 0; l < lanes; ++l) {
    const double x = store[static_cast<std::size_t>(index + l)];
    if (op.type.is_float()) {
      v.f[static_cast<std::size_t>(l)] = x;
    } else {
      v.i[static_cast<std::size_t>(l)] = std::int64_t(x);
    }
  }
}

void ThreadInterp::do_local_store(const Op& op) {
  const auto& arr = k_.local_arrays[static_cast<std::size_t>(op.array)];
  const std::int64_t index = scalar_i(op.operands[0]);
  const int lanes = op.type.lanes;
  HLSPROF_CHECK(index >= 0 && index + lanes <= arr.size,
                strf("kernel '%s': local array '%s' write out of bounds",
                     k_.name.c_str(), arr.name.c_str()));
  auto& store = locals_[static_cast<std::size_t>(op.array)];
  const RtVal& v = val(op.operands[1]);
  for (int l = 0; l < lanes; ++l) {
    double x = op.type.is_float() ? v.f[static_cast<std::size_t>(l)]
                                  : double(v.i[static_cast<std::size_t>(l)]);
    if (arr.elem == ir::Scalar::f32) x = double(float(x));
    store[static_cast<std::size_t>(index + l)] = x;
  }
}

void ThreadInterp::eval_pure(const Op& op, ValueId id) {
  const int lanes = op.type.lanes;
  const ir::Scalar sc = op.type.scalar;
  const bool fp = op.type.is_float();

  auto& out = val(id);
  auto A = [&](int i) -> const RtVal& {
    return vals_[static_cast<std::size_t>(op.operands[static_cast<std::size_t>(i)])];
  };

  switch (op.opcode) {
    case Opcode::const_int:
      out.i[0] = op.i_imm;
      break;
    case Opcode::const_float:
      out.f[0] = round_to(sc, op.f_imm);
      break;
    case Opcode::thread_id:
      out.i[0] = std::int64_t(tid_);
      break;
    case Opcode::num_threads:
      out.i[0] = k_.num_threads;
      break;
    case Opcode::read_arg: {
      const ArgValue& av = args_[static_cast<std::size_t>(op.arg)];
      if (fp) {
        out.f[0] = round_to(sc, av.f);
      } else {
        out.i[0] = av.i;
      }
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
      const RtVal& a = A(0);
      const RtVal& b = A(1);
      for (int l = 0; l < lanes; ++l) {
        const auto li = static_cast<std::size_t>(l);
        const std::int64_t x = a.i[li];
        const std::int64_t y = b.i[li];
        std::int64_t r = 0;
        switch (op.opcode) {
          case Opcode::add: r = x + y; break;
          case Opcode::sub: r = x - y; break;
          case Opcode::mul: r = x * y; break;
          case Opcode::divs:
            HLSPROF_CHECK(y != 0, "integer division by zero in kernel");
            r = x / y;
            break;
          case Opcode::rems:
            HLSPROF_CHECK(y != 0, "integer remainder by zero in kernel");
            r = x % y;
            break;
          case Opcode::and_: r = x & y; break;
          case Opcode::or_: r = x | y; break;
          case Opcode::xor_: r = x ^ y; break;
          case Opcode::shl: r = x << (y & 63); break;
          case Opcode::ashr: r = x >> (y & 63); break;
          default: break;
        }
        out.i[li] = wrap_int(sc, r);
      }
      acc_int_ += lanes;
      break;
    }
    case Opcode::neg: {
      const RtVal& a = A(0);
      for (int l = 0; l < lanes; ++l) {
        out.i[static_cast<std::size_t>(l)] =
            wrap_int(sc, -a.i[static_cast<std::size_t>(l)]);
      }
      acc_int_ += lanes;
      break;
    }
    case Opcode::cmp_lt:
    case Opcode::cmp_le:
    case Opcode::cmp_gt:
    case Opcode::cmp_ge:
    case Opcode::cmp_eq:
    case Opcode::cmp_ne: {
      const Op& lhs_op = op_at(op.operands[0]);
      const bool cmp_fp = lhs_op.type.is_float();
      bool r = false;
      if (cmp_fp) {
        const double x = A(0).f[0];
        const double y = A(1).f[0];
        switch (op.opcode) {
          case Opcode::cmp_lt: r = x < y; break;
          case Opcode::cmp_le: r = x <= y; break;
          case Opcode::cmp_gt: r = x > y; break;
          case Opcode::cmp_ge: r = x >= y; break;
          case Opcode::cmp_eq: r = x == y; break;
          case Opcode::cmp_ne: r = x != y; break;
          default: break;
        }
      } else {
        const std::int64_t x = A(0).i[0];
        const std::int64_t y = A(1).i[0];
        switch (op.opcode) {
          case Opcode::cmp_lt: r = x < y; break;
          case Opcode::cmp_le: r = x <= y; break;
          case Opcode::cmp_gt: r = x > y; break;
          case Opcode::cmp_ge: r = x >= y; break;
          case Opcode::cmp_eq: r = x == y; break;
          case Opcode::cmp_ne: r = x != y; break;
          default: break;
        }
      }
      out.i[0] = r ? 1 : 0;
      acc_int_ += 1;
      break;
    }
    case Opcode::select: {
      const bool c = A(0).i[0] != 0;
      const RtVal& x = A(1);
      const RtVal& y = A(2);
      out = c ? x : y;
      acc_int_ += lanes;
      break;
    }
    case Opcode::fadd:
    case Opcode::fsub:
    case Opcode::fmul:
    case Opcode::fdiv: {
      if (!params_.functional) {
        acc_fp_ += lanes;
        break;
      }
      const RtVal& a = A(0);
      const RtVal& b = A(1);
      for (int l = 0; l < lanes; ++l) {
        const auto li = static_cast<std::size_t>(l);
        const double x = a.f[li];
        const double y = b.f[li];
        double r = 0.0;
        switch (op.opcode) {
          case Opcode::fadd: r = x + y; break;
          case Opcode::fsub: r = x - y; break;
          case Opcode::fmul: r = x * y; break;
          case Opcode::fdiv: r = x / y; break;
          default: break;
        }
        out.f[li] = round_to(sc, r);
      }
      acc_fp_ += lanes;
      break;
    }
    case Opcode::fneg: {
      if (params_.functional) {
        const RtVal& a = A(0);
        for (int l = 0; l < lanes; ++l) {
          out.f[static_cast<std::size_t>(l)] =
              -a.f[static_cast<std::size_t>(l)];
        }
      }
      acc_fp_ += lanes;
      break;
    }
    case Opcode::cast: {
      const Op& src_op = op_at(op.operands[0]);
      const RtVal& a = A(0);
      for (int l = 0; l < lanes; ++l) {
        const auto li = static_cast<std::size_t>(l);
        if (fp && src_op.type.is_float()) {
          out.f[li] = round_to(sc, a.f[li]);
        } else if (fp) {
          out.f[li] = round_to(sc, double(a.i[li]));
        } else if (src_op.type.is_float()) {
          out.i[li] = wrap_int(sc, std::int64_t(a.f[li]));
        } else {
          out.i[li] = wrap_int(sc, a.i[li]);
        }
      }
      acc_int_ += lanes;
      break;
    }
    case Opcode::broadcast: {
      const RtVal& a = A(0);
      for (int l = 0; l < lanes; ++l) {
        const auto li = static_cast<std::size_t>(l);
        if (fp) {
          out.f[li] = a.f[0];
        } else {
          out.i[li] = a.i[0];
        }
      }
      break;
    }
    case Opcode::extract: {
      const RtVal& a = A(0);
      const auto lane = static_cast<std::size_t>(op.i_imm);
      if (fp) {
        out.f[0] = a.f[lane];
      } else {
        out.i[0] = a.i[lane];
      }
      break;
    }
    case Opcode::insert: {
      out = A(0);
      const RtVal& s = A(1);
      const auto lane = static_cast<std::size_t>(op.i_imm);
      if (fp) {
        out.f[lane] = s.f[0];
      } else {
        out.i[lane] = s.i[0];
      }
      break;
    }
    case Opcode::reduce_add: {
      const Op& src_op = op_at(op.operands[0]);
      const RtVal& a = A(0);
      const int n = src_op.type.lanes;
      if (fp) {
        double s = 0.0;
        for (int l = 0; l < n; ++l) {
          s = round_to(sc, s + a.f[static_cast<std::size_t>(l)]);
        }
        out.f[0] = s;
        acc_fp_ += n - 1;
      } else {
        std::int64_t s = 0;
        for (int l = 0; l < n; ++l) s += a.i[static_cast<std::size_t>(l)];
        out.i[0] = wrap_int(sc, s);
        acc_int_ += n - 1;
      }
      break;
    }
    case Opcode::load_local:
      do_local_load(op, id);
      break;
    case Opcode::store_local:
      do_local_store(op);
      break;
    case Opcode::var_read: {
      out = varp_[static_cast<std::size_t>(op.var)];
      break;
    }
    case Opcode::var_write: {
      varp_[static_cast<std::size_t>(op.var)] = A(0);
      break;
    }
    case Opcode::load_ext:
    case Opcode::store_ext:
    case Opcode::preload:
      fail("external memory ops must go through exec_op");
  }
}

}  // namespace hlsprof::sim
