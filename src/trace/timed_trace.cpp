#include "trace/timed_trace.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"

namespace hlsprof::trace {

double TimedTrace::state_fraction(thread_id_t tid, sim::ThreadState s) const {
  HLSPROF_CHECK(tid < thread_states.size(), "thread id out of range");
  if (duration == 0) return 0.0;
  cycle_t total = 0;
  for (const StateInterval& iv : thread_states[tid]) {
    if (iv.state == s) total += iv.end - iv.begin;
  }
  return double(total) / double(duration);
}

double TimedTrace::state_fraction(sim::ThreadState s) const {
  if (duration == 0 || num_threads == 0) return 0.0;
  return double(state_cycles(s)) / (double(duration) * double(num_threads));
}

cycle_t TimedTrace::state_cycles(sim::ThreadState s) const {
  return state_cycles()[std::size_t(s) & 3];
}

std::array<cycle_t, 4> TimedTrace::state_cycles() const {
  std::array<cycle_t, 4> total{};
  for (const auto& tv : thread_states) {
    for (const StateInterval& iv : tv) {
      total[std::size_t(iv.state) & 3] += iv.end - iv.begin;
    }
  }
  return total;
}

std::uint64_t TimedTrace::event_total(EventKind kind) const {
  std::uint64_t total = 0;
  for (const EventSample& e : events) {
    if (e.kind == kind) total += e.value;
  }
  return total;
}

TimedTraceBuilder::TimedTraceBuilder(int num_threads, cycle_t sampling_period)
    : num_threads_(num_threads),
      sampling_period_(sampling_period) {
  HLSPROF_CHECK(num_threads >= 1 && num_threads <= 64,
                "TimedTraceBuilder needs 1..64 threads");
  since_.assign(std::size_t(num_threads), 0);
  out_.num_threads = num_threads;
  out_.thread_states.resize(std::size_t(num_threads));
}

void TimedTraceBuilder::on_state(const StateRecord& r, cycle_t t) {
  HLSPROF_CHECK(!finished_, "TimedTraceBuilder::on_state after finish");
  HLSPROF_CHECK((r.states & ~state_mask(num_threads_)) == 0,
                "state record has a code above the thread count");
  ++states_seen_;
  last_clock_ = std::max(last_clock_, t);
  // State records carry the full state word; build intervals per thread
  // by splitting at records where that thread's code changes.
  if (!have_any_) {
    have_any_ = true;
    first_clock_ = t;
    cur_ = r.states;
    std::fill(since_.begin(), since_.end(), t);
    return;
  }
  // Visit only the threads whose code changed: the set bits of the XOR,
  // one 64-bit half (32 threads) at a time.
  const StateWord diff = r.states ^ cur_;
  for (int half = 0; half < 2; ++half) {
    for (auto bits = std::uint64_t(diff >> (64 * half)); bits != 0;) {
      const int k2 = std::countr_zero(bits) & ~1;  // thread's low code bit
      bits &= ~(std::uint64_t(3) << k2);
      const auto k = std::size_t(32 * half + k2 / 2);
      if (t > since_[k]) {
        out_.thread_states[k].push_back(StateInterval{
            sim::ThreadState(state_code(cur_, int(k))), since_[k], t});
      }
      since_[k] = t;
    }
  }
  cur_ = r.states;
}

void TimedTraceBuilder::on_event(const EventRecord& r, cycle_t t) {
  HLSPROF_CHECK(!finished_, "TimedTraceBuilder::on_event after finish");
  last_clock_ = std::max(last_clock_, t);
  out_.events.push_back(EventSample{r.kind, thread_id_t(r.thread), t,
                                    r.value});
}

TimedTrace TimedTraceBuilder::finish(cycle_t run_end) {
  HLSPROF_CHECK(!finished_, "TimedTraceBuilder::finish called twice");
  finished_ = true;
  const cycle_t end = std::max(run_end, have_any_ ? first_clock_ : 0);
  if (have_any_) {
    for (int k = 0; k < num_threads_; ++k) {
      if (end > since_[std::size_t(k)]) {
        out_.thread_states[std::size_t(k)].push_back(StateInterval{
            sim::ThreadState(state_code(cur_, k)), since_[std::size_t(k)],
            end});
      }
    }
  }
  out_.duration = end;
  out_.sampling_period = out_.events.empty() ? 0 : sampling_period_;
  return std::move(out_);
}

TimedTrace build_timed_trace(const DecodedTrace& decoded, int num_threads,
                             cycle_t run_end, cycle_t sampling_period) {
  TimedTraceBuilder b(num_threads, sampling_period);
  for (std::size_t i = 0; i < decoded.states.size(); ++i) {
    b.on_state(decoded.states[i], decoded.state_clocks[i]);
  }
  for (std::size_t i = 0; i < decoded.events.size(); ++i) {
    b.on_event(decoded.events[i], decoded.event_clocks[i]);
  }
  return b.finish(run_end);
}

}  // namespace hlsprof::trace
