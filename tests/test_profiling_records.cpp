// Pins the profiling unit's output for a hand-driven hook sequence: every
// decoded state and event record, the trace bytes and the flush bursts,
// checked against tests/golden/profiling_records.txt. The sequence
// covers eight threads sampling out of time order within the finalize
// lag, a compute span that raises the high-water mark past the next
// window close followed by a request below it, spans over several
// windows, samples for windows already emitted (dropped), and both a
// power-of-two (8192) and a non-power-of-two (1000) sampling period.
// Requests and compute spans enter through sample_request and
// sample_compute, so the golden covers both their inline paths (a sample
// inside the cached window) and their slow paths.
//
// After an intended change to the unit's output, the test writes what it
// decoded to profiling_records.actual.txt in its working directory
// (build/tests); copy that over the golden and explain the diff in
// CHANGES.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "core/hlsprof.hpp"
#include "profiling/unit.hpp"
#include "workloads/simple.hpp"

namespace hlsprof::profiling {
namespace {

using sim::ThreadState;

constexpr int kThreads = 8;

/// One external-memory request as the simulator reports it: `bytes`
/// accepted at `accepted`, then a stall of `stall` cycles from `expected`.
void request(ProfilingUnit& u, thread_id_t tid, cycle_t accepted,
             std::uint32_t bytes, bool is_write, cycle_t expected,
             cycle_t stall) {
  u.sample_request(tid, accepted, bytes, is_write, expected, stall);
}

/// Drives `u` through the sequence described at the top of the file.
void drive(ProfilingUnit& u, cycle_t period, std::uint64_t seed) {
  SplitMix64 rng(seed);
  cycle_t clock = 0;
  for (int t = 0; t < kThreads; ++t) {
    u.on_state(thread_id_t(t), ThreadState::idle, 0);
  }
  for (int t = 0; t < kThreads; ++t) {
    u.on_state(thread_id_t(t), ThreadState::running, cycle_t(10 * t + 5));
  }
  std::vector<cycle_t> last_compute(kThreads, 0);
  std::vector<ThreadState> state(kThreads, ThreadState::running);

  // Requests from eight threads, out of time order by up to three
  // periods, with compute spans and state changes: about three windows
  // per 768 steps.
  auto phase = [&](int steps) {
    for (int i = 0; i < steps; ++i) {
      clock += rng.next_below(period / 128 + 1);
      const auto tid = thread_id_t(rng.next_below(kThreads));
      const cycle_t skew = rng.next_below(3 * period);
      const cycle_t accepted = clock > skew ? clock - skew : 0;
      const cycle_t jitter = rng.next_below(64);
      const cycle_t expected =
          rng.next_below(2) != 0 ? accepted + jitter
                                 : (accepted > jitter ? accepted - jitter : 0);
      const cycle_t stall =
          rng.next_below(3) == 0 ? 0 : 1 + rng.next_below(300);
      request(u, tid, accepted, std::uint32_t(4 << rng.next_below(5)),
              rng.next_below(4) == 0, expected, stall);
      if (rng.next_below(8) == 0) {
        const auto c = thread_id_t(rng.next_below(kThreads));
        const cycle_t t1 = std::max(clock, last_compute[c] + 1);
        u.sample_compute(c, 1 + (long long)rng.next_below(500),
                     (long long)rng.next_below(200), last_compute[c], t1);
        last_compute[c] = t1;
      }
      if (rng.next_below(40) == 0) {
        const auto s = thread_id_t(rng.next_below(kThreads));
        state[s] = ThreadState(1 + rng.next_below(3));
        u.on_state(s, state[s], clock);
      }
    }
  };
  phase(768);

  // Spans over several windows, starting inside an open one. Their
  // length also grows the ring of open windows past what the trap's span
  // below needs, so that span moves no accumulators.
  const cycle_t lag = std::max<cycle_t>(16384, period);
  const cycle_t s0 = clock - period / 2;
  const cycle_t s1 = s0 + 2 * lag + 6 * period + 123;
  u.sample_compute(3, 123457, 98765, s0, s1);
  u.on_mem_span(4, s0 + 7, s1, 1 << 20, 3 << 18);
  u.on_stall_span(5, s0 + 11, s1 - 3, 77777);
  clock = s1;
  last_compute[3] = s1;
  phase(768);

  // The trap: a span raises the high-water mark past the next window
  // close without closing windows; a request in the window the mark
  // just left must close them first (so its own window is dropped).
  clock = (clock / period + 1) * period + period / 2;
  request(u, 0, clock, 16, false, clock, 0);
  const cycle_t t1 = clock + lag + 2 * period;
  u.sample_compute(0, 1000, 400, std::max(clock, last_compute[0]), t1);
  last_compute[0] = t1;
  request(u, 1, clock, 64, false, clock + 2, 90);
  request(u, 2, clock + 20, 32, true, clock + 22, 0);
  clock = t1;

  // Samples for windows long emitted: dropped.
  request(u, 6, 5, 64, false, 7, 300);
  u.sample_compute(7, 99, 99, 3, 9);
  u.on_mem_span(7, 1, 2, 64, 64);
  phase(256);

  for (int t = 0; t < kThreads; ++t) {
    u.on_state(thread_id_t(t), ThreadState::idle, clock + 100 + cycle_t(t));
  }
  u.on_finish(clock + 200);
}

std::vector<std::string> records(const char* name, ProfilingConfig cfg,
                                 std::uint64_t seed) {
  const hls::Design d = hls::compile(workloads::dot(240, kThreads));
  sim::Simulator s(d);
  ProfilingUnit u(d, cfg, s.memory());
  drive(u, cfg.sampling_period, seed);
  const trace::DecodedTrace tr = u.decode();
  std::vector<std::string> out;
  out.push_back(strf("%s bytes=%zu bursts=%lld states=%zu events=%zu", name,
                     u.trace_bytes_written(), u.flush_bursts(),
                     tr.states.size(), tr.events.size()));
  for (std::size_t i = 0; i < tr.states.size(); ++i) {
    std::string codes;
    for (int t = 0; t < kThreads; ++t) {
      codes += char('0' + trace::state_code(tr.states[i].states, t));
    }
    out.push_back(strf("S %llu %s", (unsigned long long)tr.state_clocks[i],
                       codes.c_str()));
  }
  for (std::size_t i = 0; i < tr.events.size(); ++i) {
    const trace::EventRecord& e = tr.events[i];
    out.push_back(strf("E %d %d %llu %llu", int(e.kind), int(e.thread),
                       (unsigned long long)tr.event_clocks[i],
                       (unsigned long long)e.value));
  }
  return out;
}

TEST(ProfilingRecords, HandDrivenHooksMatchGolden) {
  std::vector<std::string> got;
  ProfilingConfig p8192;
  for (const std::string& l : records("period8192", p8192, 11)) {
    got.push_back(l);
  }
  ProfilingConfig p1000;
  p1000.sampling_period = 1000;
  p1000.buffer_lines = 8;
  p1000.flush_headroom_lines = 2;
  for (const std::string& l : records("period1000", p1000, 12)) {
    got.push_back(l);
  }

  std::ifstream f(HLSPROF_GOLDEN_DIR "/profiling_records.txt");
  std::vector<std::string> want;
  for (std::string l; std::getline(f, l);) want.push_back(l);
  bool same = want.size() == got.size();
  for (std::size_t i = 0; i < got.size() && i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "record line " << i + 1;
    same = same && got[i] == want[i];
  }
  EXPECT_EQ(got.size(), want.size()) << "record line count";
  if (!same) {
    std::ofstream actual("profiling_records.actual.txt");
    for (const std::string& l : got) actual << l << '\n';
  }
}

}  // namespace
}  // namespace hlsprof::profiling
