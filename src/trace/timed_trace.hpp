// Host-side reconstruction of the execution timeline from decoded raw
// records: per-thread state intervals plus sampled event values. This is
// the neutral in-memory form the Paraver writer and the analysis library
// consume.
#pragma once

#include <array>
#include <vector>

#include "common/types.hpp"
#include "sim/hooks.hpp"
#include "trace/records.hpp"
#include "trace/streaming.hpp"

namespace hlsprof::trace {

struct StateInterval {
  sim::ThreadState state = sim::ThreadState::idle;
  cycle_t begin = 0;
  cycle_t end = 0;  // exclusive
};

struct EventSample {
  EventKind kind = EventKind::stall_cycles;
  thread_id_t thread = 0;
  cycle_t t = 0;  // sampling-window start
  std::uint64_t value = 0;
};

/// Paraver communication record. The paper defers communication records to
/// multi-FPGA future work; as a first step we emit host<->device map()
/// transfers as communications anchored on thread 0 (tag 1 = to device,
/// tag 2 = from device).
struct CommRecord {
  thread_id_t thread = 0;
  cycle_t send = 0;  // transfer start
  cycle_t recv = 0;  // transfer end
  std::uint64_t bytes = 0;
  int tag = 0;
};

inline constexpr int kCommTagToDevice = 1;
inline constexpr int kCommTagFromDevice = 2;

struct TimedTrace {
  int num_threads = 0;
  cycle_t duration = 0;          // end of the last state interval
  cycle_t sampling_period = 0;   // 0 if no event records present
  std::vector<std::vector<StateInterval>> thread_states;  // per thread
  std::vector<EventSample> events;  // in record order
  std::vector<CommRecord> comms;    // host<->device transfers (extension)

  /// Fraction of [0, duration) thread `tid` spent in `s`.
  double state_fraction(thread_id_t tid, sim::ThreadState s) const;
  /// Fraction across all threads (sum of state time / (threads*duration)).
  double state_fraction(sim::ThreadState s) const;
  /// Total cycles all threads spent in `s`.
  cycle_t state_cycles(sim::ThreadState s) const;
  /// The same for all four states in one pass, indexed by ThreadState.
  std::array<cycle_t, 4> state_cycles() const;

  /// Sum of event values of `kind` across threads and windows.
  std::uint64_t event_total(EventKind kind) const;
};

/// Incremental timeline reconstruction: folds decoded records into state
/// intervals and event samples as they arrive, so a streaming pipeline
/// (StreamingDecoder → TimedTraceBuilder) never holds the raw record
/// stream. Plugs directly into a StreamingDecoder as its RecordSink.
/// Records must arrive in trace order; finish() closes the last interval
/// of every thread at `run_end` and hands out the timeline.
class TimedTraceBuilder final : public RecordSink {
 public:
  /// `sampling_period` is recorded in the result iff any event records
  /// arrive (matching the batch builder).
  TimedTraceBuilder(int num_threads, cycle_t sampling_period);

  void on_state(const StateRecord& r, cycle_t t) override;
  void on_event(const EventRecord& r, cycle_t t) override;

  /// `run_end` clamps/extends the final state interval (the tracer knows
  /// when the run finished). The builder is spent afterwards.
  TimedTrace finish(cycle_t run_end);

  long long states_seen() const { return states_seen_; }

  // Read-only view of the fold so far, for observers that sample the
  // builder between flush bursts (the live timeline). Valid until finish().
  int num_threads() const { return num_threads_; }
  /// Per-thread state intervals closed so far, in time order.
  const std::vector<std::vector<StateInterval>>& closed_intervals() const {
    return out_.thread_states;
  }
  /// True once the first state record arrived (open states exist).
  bool started() const { return have_any_; }
  /// Thread `tid`'s open state and the cycle it began at.
  sim::ThreadState open_state(thread_id_t tid) const {
    return sim::ThreadState(state_code(cur_, int(tid)));
  }
  cycle_t open_since(thread_id_t tid) const { return since_[tid]; }
  /// Largest record clock seen so far (0 before any record).
  cycle_t last_clock() const { return last_clock_; }

 private:
  int num_threads_;
  cycle_t sampling_period_;
  TimedTrace out_;
  StateWord cur_ = 0;           // every thread's current code, packed
  std::vector<cycle_t> since_;  // open-interval start per thread
  bool have_any_ = false;
  cycle_t first_clock_ = 0;
  cycle_t last_clock_ = 0;
  bool finished_ = false;
  long long states_seen_ = 0;
};

/// Build the timeline from decoded records. `run_end` clamps/extends the
/// final state interval (the tracer knows when the run finished). Thin
/// wrapper over TimedTraceBuilder, so batch and streaming reconstruction
/// cannot diverge.
TimedTrace build_timed_trace(const DecodedTrace& decoded, int num_threads,
                             cycle_t run_end, cycle_t sampling_period);

}  // namespace hlsprof::trace
