// Benchmark harness for HLSProf. Runs one workload in one process as a
// closed loop with one client and one job in flight. Every job makes the
// calls runner::run_job makes: kernel factory, design cache, core::Session,
// bind, run, analysis and check. Every job is checked. Between jobs a
// host-speed gauge (see SpeedGauge) times a fixed calibration, so that
// run.py can rescale each job to a nominal host speed. The raw
// measurements go to stdout as one JSON line; perfbench/run.py reduces
// them to the benchmark's metrics.
//
//   hlsprof-perfbench --workload=W --seed=N --seconds=S --trace=0|1
//                     [--spans=FILE]
//
// --trace=0  Untraced: no span and no clock read inside a job besides the
//            job's own wall clock; telemetry stays disabled.
// --trace=1  Alternates an untraced job with a traced one. The traced job
//            records a span around each call into a layer, and is followed
//            by a profiling-off pass of the same job. Spans are kept in
//            memory and written to FILE as JSON lines at the end.
//
// Exit codes: 0 measured (failed jobs are reported, not fatal), 2 usage,
// 3 the per-job counts did not repeat (simulator behaviour drifted within
// the run).

#include <sched.h>
#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/argparse.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "core/hlsprof.hpp"
#include "paraver/analysis.hpp"
#include "runner/design_cache.hpp"
#include "workloads/gemm.hpp"
#include "workloads/pi.hpp"
#include "workloads/reference.hpp"

namespace {

using namespace hlsprof;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- Spans -----------------------------------------------------------------

struct Span {
  const char* name;
  double start;  // seconds since the tracer's epoch
  double end;
  int parent;  // index into the span list, -1 for a root
  int job;
};

class Tracer {
 public:
  int open(const char* name) {
    const int id = int(spans_.size());
    spans_.push_back({name, now(), 0.0, stack_.empty() ? -1 : stack_.back(),
                      job_});
    stack_.push_back(id);
    return id;
  }
  void close(int id) {
    spans_[std::size_t(id)].end = now();
    stack_.pop_back();
  }
  void set_job(int job) { job_ = job; }

  void write(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& s : spans_) {
      JsonWriter w;
      w.begin_object()
          .field("name", s.name)
          .field("start", s.start)
          .field("end", s.end)
          .field("parent", s.parent)
          .field("job", s.job)
          .end_object();
      out << w.str() << '\n';
    }
    HLSPROF_CHECK(out.good(), "cannot write spans to " + path);
  }

 private:
  double now() const { return seconds_between(epoch_, Clock::now()); }

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
  int job_ = -1;
};

class SpanGuard {
 public:
  SpanGuard(Tracer* tr, const char* name)
      : tr_(tr), id_(tr != nullptr ? tr->open(name) : -1) {}
  ~SpanGuard() {
    if (tr_ != nullptr) tr_->close(id_);
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  Tracer* tr_;
  int id_;
};

/// Runs `f` inside a span named `name`; with a null tracer it only runs `f`.
template <typename F>
decltype(auto) in_span(Tracer* tr, const char* name, F&& f) {
  const SpanGuard guard(tr, name);
  return f();
}

// ---- Trace shims (traced jobs only) ----------------------------------------

/// Holds the records one flush burst decodes to, so the fold into the
/// timeline can be timed apart from the decode. Slots are reused across
/// bursts, so buffering stops allocating after the first bursts.
class RecordBuffer final : public trace::RecordSink {
 public:
  void on_state(const trace::StateRecord& r, cycle_t t) override {
    if (n_states_ == states_.size()) states_.emplace_back();
    states_[n_states_] = r;
    order_.push_back({true, n_states_++, t});
  }
  void on_event(const trace::EventRecord& r, cycle_t t) override {
    if (n_events_ == events_.size()) events_.emplace_back();
    events_[n_events_] = r;
    order_.push_back({false, n_events_++, t});
  }

  /// Hands the buffered records to `sink` in arrival order and empties
  /// the buffer.
  void replay(trace::RecordSink& sink) {
    for (const Item& it : order_) {
      if (it.state) {
        sink.on_state(states_[it.index], it.t);
      } else {
        sink.on_event(events_[it.index], it.t);
      }
    }
    order_.clear();
    n_states_ = 0;
    n_events_ = 0;
  }

 private:
  struct Item {
    bool state;
    std::size_t index;
    cycle_t t;
  };
  std::vector<trace::StateRecord> states_;
  std::vector<trace::EventRecord> events_;
  std::vector<Item> order_;
  std::size_t n_states_ = 0;
  std::size_t n_events_ = 0;
};

/// The flush sink of a traced job: decodes each burst under a
/// `trace.decode` span, then folds its records under `trace.timeline`.
class TimedFlushSink final : public trace::FlushSink {
 public:
  TimedFlushSink(trace::StreamingDecoder& decoder, RecordBuffer& buffer,
                 trace::RecordSink& builder, Tracer& tr)
      : decoder_(decoder), buffer_(buffer), builder_(builder), tr_(tr) {}

  void on_burst(const std::uint8_t* data, std::size_t bytes) override {
    in_span(&tr_, "trace.decode", [&] { decoder_.on_burst(data, bytes); });
    in_span(&tr_, "trace.timeline", [&] { buffer_.replay(builder_); });
  }

 private:
  trace::StreamingDecoder& decoder_;
  RecordBuffer& buffer_;
  trace::RecordSink& builder_;
  Tracer& tr_;
};

/// core::Session::run() spelled out with the shims above between the
/// layers: the same unit → StreamingDecoder → TimedTraceBuilder pipeline,
/// the same calls in the same order.
core::RunResult traced_run(core::Session& session, Tracer& tr) {
  // Session exposes its unit read-only; the unit object itself is not
  // const, and this function only installs and removes the flush sink, as
  // Session::run does.
  auto* unit = const_cast<profiling::ProfilingUnit*>(session.unit());
  HLSPROF_CHECK(unit != nullptr, "traced run needs profiling on");
  const int threads = session.design().kernel.num_threads;
  trace::TimedTraceBuilder builder(threads, unit->config().sampling_period);
  RecordBuffer buffer;
  trace::StreamingDecoder decoder(threads, buffer);
  TimedFlushSink sink(decoder, buffer, builder, tr);

  struct Detach {
    profiling::ProfilingUnit* unit;
    ~Detach() { unit->set_flush_sink(nullptr); }
  };
  core::RunResult r;
  {
    unit->set_flush_sink(&sink);
    const Detach detach{unit};
    r.sim = session.sim().run(unit);
  }
  in_span(&tr, "trace.decode", [&] { decoder.finish(); });
  r.timeline = in_span(&tr, "trace.timeline", [&] {
    buffer.replay(builder);
    return builder.finish(unit->run_end());
  });
  r.has_trace = true;
  for (const sim::HostTransfer& t : r.sim.transfers) {
    r.timeline.comms.push_back(trace::CommRecord{
        0, t.begin, t.end, t.bytes,
        t.to_device ? trace::kCommTagToDevice : trace::kCommTagFromDevice});
  }
  r.state_records = unit->state_records();
  r.event_records = unit->event_records();
  r.flush_bursts = unit->flush_bursts();
  r.trace_bytes = unit->trace_bytes_written();
  r.peak_trace_buffer_bytes = unit->peak_burst_bytes();
  return r;
}

// ---- Workloads -------------------------------------------------------------

/// Simulated totals every job of a workload must reproduce. The exact tier
/// pins them exactly (cycle_tol 0); the approx tier pins only its cycle
/// count, within its tolerance contract (docs/PERF.md).
struct Pins {
  cycle_t cycles = 0;
  double cycle_tol = 0.0;  // relative
  std::int64_t busy_thread_cycles = 0;
  std::int64_t mem_requests = 0;
  long long trace_records = 0;
};

struct Workload {
  const char* name;
  bool gemm;               // GEMM (A, B -> C) or the π series
  int dim = 0;             // GEMM edge
  std::int64_t steps = 0;  // π steps
  ir::Kernel (*factory)(const Workload&);
  core::RunOptions run{};
  bool verify = true;  // approx-tier outputs are not meaningful
  Pins pins;
  int setups = 5;  // set-up repetitions; setup_s is their median
};

std::vector<Workload> make_workloads() {
  core::RunOptions approx;
  approx.sim.fast_forward = true;
  std::vector<Workload> w;
  // The paper's E3/E4 configuration: 8 threads contend for the semaphore
  // and DRAM; the event loop and the trace pipeline do the work.
  w.push_back({.name = "gemm_contended",
               .gemm = true,
               .dim = 96,
               .factory = [](const Workload& self) {
                 return workloads::gemm_naive({.dim = self.dim, .threads = 8});
               },
               .pins = {.cycles = 10750531,
                        .busy_thread_cycles = 42627962,
                        .mem_requests = 1948507,
                        .trace_records = 246098}});
  // Single-thread memory-bound GEMM on the approx tier: fast-forward
  // jumps skip most cycles, and the contended event loop does nothing.
  w.push_back({.name = "gemm_approx",
               .gemm = true,
               .dim = 128,
               .factory = [](const Workload& self) {
                 return workloads::gemm_no_critical(
                     {.dim = self.dim, .threads = 1});
               },
               .run = approx,
               .verify = false,
               .pins = {.cycles = 50167558, .cycle_tol = 0.005},
               .setups = 7});
  // A stream of short π jobs: the fixed per-job cost (session set-up)
  // dominates and the simulation is under 3% of a job.
  w.push_back({.name = "job_stream",
               .gemm = false,
               .steps = 16384,
               .factory = [](const Workload& self) {
                 return workloads::pi_series({.steps = self.steps, .threads = 8});
               },
               .pins = {.cycles = 5604534,
                        .busy_thread_cycles = 4268,
                        .mem_requests = 33,
                        .trace_records = 82},
               .setups = 7});
  return w;
}

/// One seed-drawn input set. The program sees only these values.
struct Inputs {
  std::vector<float> a, b;  // GEMM operands
  std::vector<float> c_ref;  // host reference of A*B
  float acc0 = 0.0f;         // π: initial value of the tofrom accumulator
};

constexpr int kInputSets = 4;

std::vector<Inputs> make_inputs(const Workload& w, std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<Inputs> sets(kInputSets);
  for (Inputs& in : sets) {
    if (w.gemm) {
      in.a = workloads::random_matrix(w.dim, rng.next());
      in.b = workloads::random_matrix(w.dim, rng.next());
      if (w.verify) in.c_ref = workloads::gemm_reference(in.a, in.b, w.dim);
    } else {
      in.acc0 = rng.next_float(-1.0f, 1.0f);
    }
  }
  return sets;
}

// ---- Jobs ------------------------------------------------------------------

/// Per-job counts. All are deterministic, so every job of a workload must
/// reproduce them exactly.
struct Counts {
  std::int64_t cycles = 0;
  std::int64_t busy_thread_cycles = 0;  // Running + Critical + Spinning
  std::int64_t mem_requests = 0;        // DRAM reads + writes
  double row_hit_rate = 0.0;
  std::uint64_t direct_dispatch = 0;
  std::uint64_t batched_mem = 0;
  std::uint64_t ff_phases = 0;
  std::uint64_t ff_cycles_skipped = 0;
  std::uint64_t ff_model_rejects = 0;
  long long trace_records = 0;
  std::uint64_t trace_bytes = 0;
  long long flush_bursts = 0;
  bool cache_hit = false;
  // Analysis outputs (compared, not reported).
  double running_frac = 0.0;
  double spinning_frac = 0.0;
  double gflops = 0.0;
  double overhead_alm_pct = 0.0;

  bool operator==(const Counts&) const = default;
};

struct JobOutcome {
  bool ok = false;
  std::string error;
  double wall_s = 0.0;
  Counts counts;
};

void bind(const Workload& w, sim::Simulator& sim, Inputs& in,
          std::vector<float>& out) {
  if (w.gemm) {
    std::fill(out.begin(), out.end(), 0.0f);
    sim.bind_f32("A", in.a);
    sim.bind_f32("B", in.b);
    sim.bind_f32("C", out);
  } else {
    out[0] = in.acc0;
    sim.bind_f32("out", out);
    sim.set_arg("steps", w.steps);
    sim.set_arg("inv_steps", 1.0 / double(w.steps));
  }
}

/// The analysis runner::run_job does after a run (fill_metrics), plus the
/// busy thread-cycles of the timeline.
Counts analyse(core::Session& s, const core::RunResult& r) {
  Counts c;
  c.cycles = std::int64_t(r.sim.total_cycles);
  c.mem_requests = r.sim.dram_reads + r.sim.dram_writes;
  c.row_hit_rate = r.sim.row_hit_rate;
  const auto fast = s.sim().fast_path_stats();
  c.direct_dispatch = fast.direct_dispatch;
  c.batched_mem = fast.batched_mem;
  const auto ff = s.sim().fast_forward_stats();
  c.ff_phases = ff.phases;
  c.ff_cycles_skipped = ff.cycles_skipped;
  c.ff_model_rejects = ff.model_rejects;
  c.trace_records = r.state_records + r.event_records;
  c.trace_bytes = r.trace_bytes;
  c.flush_bursts = r.flush_bursts;
  c.busy_thread_cycles =
      std::int64_t(r.timeline.state_cycles(sim::ThreadState::running) +
                   r.timeline.state_cycles(sim::ThreadState::critical) +
                   r.timeline.state_cycles(sim::ThreadState::spinning));
  const auto st = paraver::summarize_states(r.timeline);
  c.running_frac = st.running;
  c.spinning_frac = st.spinning;
  c.gflops = paraver::gflops(r.sim.total_fp_ops(), r.sim.total_cycles,
                             s.design().fmax_mhz);
  c.overhead_alm_pct = s.overhead().alm_pct;
  return c;
}

void check(const Workload& w, const Inputs& in, const std::vector<float>& out,
           const Counts& c) {
  if (w.verify && w.gemm) {
    const double err = workloads::max_rel_error(out, in.c_ref);
    if (!(err <= 1e-3)) {
      fail("gemm output: max rel error " + std::to_string(err));
    }
  } else if (w.verify) {
    const double pi = (double(out[0]) - double(in.acc0)) / double(w.steps);
    const double err = std::fabs(pi - workloads::pi_reference(w.steps));
    if (!(err <= 5e-3)) fail("pi output: |err| " + std::to_string(err));
  }
  const Pins& p = w.pins;
  const double drift =
      std::fabs(double(c.cycles) - double(p.cycles)) / double(p.cycles);
  if (drift > p.cycle_tol) {
    fail("total cycles " + std::to_string(c.cycles) + ", pinned " +
         std::to_string(p.cycles));
  }
  if (p.cycle_tol == 0.0 &&
      (c.busy_thread_cycles != p.busy_thread_cycles ||
       c.mem_requests != p.mem_requests ||
       c.trace_records != p.trace_records)) {
    fail("simulated totals drifted: busy " +
         std::to_string(c.busy_thread_cycles) + ", requests " +
         std::to_string(c.mem_requests) + ", records " +
         std::to_string(c.trace_records));
  }
}

/// One job: the calls runner::run_job makes, one span each when traced.
JobOutcome run_job(const Workload& w, runner::DesignCache& cache,
                   Inputs& in, std::vector<float>& out, Tracer* tr) {
  JobOutcome o;
  const auto t0 = Clock::now();
  {
    const SpanGuard job(tr, "job");
    try {
      ir::Kernel kernel =
          in_span(tr, "workloads.factory", [&] { return w.factory(w); });
      const runner::DesignCache::Entry entry = in_span(tr, "runner.cache", [&] {
        return cache.get_or_compile(std::move(kernel), hls::HlsOptions{});
      });
      std::optional<core::Session> session;
      in_span(tr, "core.session",
              [&] { session.emplace(entry.design, w.run); });
      in_span(tr, "sim.bind", [&] { bind(w, session->sim(), in, out); });
      const core::RunResult r = in_span(tr, "sim.run", [&] {
        return tr != nullptr ? traced_run(*session, *tr) : session->run();
      });
      o.counts = in_span(tr, "paraver.analysis",
                         [&] { return analyse(*session, r); });
      o.counts.cache_hit = entry.hit;
      in_span(tr, "workloads.check", [&] { check(w, in, out, o.counts); });
      in_span(tr, "core.teardown", [&] { session.reset(); });
      o.ok = true;
    } catch (const std::exception& e) {
      o.error = e.what();
    }
  }
  o.wall_s = seconds_between(t0, Clock::now());
  return o;
}

/// The traced job's profiling-off twin: same design and inputs, no
/// profiling unit. Its `sim.run` span is the simulator core alone.
void run_without_profiling(const Workload& w, runner::DesignCache& cache,
                           Inputs& in, std::vector<float>& out, Tracer& tr) {
  core::RunOptions opts = w.run;
  opts.enable_profiling = false;
  const SpanGuard root(&tr, "job.noprof");
  core::Session session(
      cache.get_or_compile(w.factory(w), hls::HlsOptions{}).design, opts);
  bind(w, session.sim(), in, out);
  in_span(&tr, "sim.run", [&] { session.sim().run(nullptr); });
}

// ---- Run loop --------------------------------------------------------------

/// Counts all jobs and keeps the first error and the reference counts.
struct Tally {
  long long attempted = 0;
  long long failed = 0;
  std::string first_error;
  std::optional<Counts> reference;
  bool drifted = false;

  void add(const JobOutcome& o) {
    ++attempted;
    if (!o.ok) {
      ++failed;
      if (first_error.empty()) first_error = o.error;
      return;
    }
    if (!reference) {
      reference = o.counts;
    } else if (!(o.counts == *reference)) {
      drifted = true;
    }
  }
};

// ---- Host-speed calibration -----------------------------------------------
//
// Shared hosts change speed by up to 2x within seconds as co-tenants come
// and go, in two ways. A virtual CPU slows while a co-tenant shares its
// physical core; CPUs change state independently, each keeping it for
// seconds. And the whole host slows while co-tenants load memory. The
// gauge counters both, between every two timed intervals:
//
// - It times a cache-resident probe loop on the current CPU and, when the
//   loop runs slowly, moves the process to whichever allowed CPU runs it
//   fastest.
// - It times a fixed calibration: first-touch writes to a fresh 4 MiB
//   mapping (page faults and zero fill, the kind of work a session's
//   simulated DRAM costs). An interval's scale is the calibration's
//   nominal time over the mean of the runs right before and right after
//   it, so scaled times read as seconds on a host on which the
//   calibration takes kCalibrationNominalS.
//
// Of the calibrations tried (this one, the probe loop, and mixes of the
// two), this one tracked the host best on all three workloads.

constexpr double kCalibrationNominalS = 0.002;

class SpeedGauge {
 public:
  SpeedGauge() : table_(std::size_t{1} << 14) {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) cpus_.push_back(c);
      }
    }
    calibrate();  // the first faults of the process are slower
    move_to_fastest_cpu();
    last_ = calibrate();
  }

  /// Scale of the interval since the previous call (or construction).
  /// Moves to a faster CPU for the next interval if this one has slowed.
  double scale() {
    const double now = calibrate();
    const double s = kCalibrationNominalS / (0.5 * (last_ + now));
    last_ = probe() > kSlow * best_probe_ && move_to_fastest_cpu()
                ? calibrate()
                : now;
    return s;
  }

 private:
  static constexpr double kSlow = 1.2;

  static double calibrate() {
    constexpr std::size_t kBytes = std::size_t{4} << 20;
    const auto t0 = Clock::now();
    void* map = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    HLSPROF_CHECK(map != MAP_FAILED, "calibration mmap failed");
    std::memset(map, 1, kBytes);
    munmap(map, kBytes);
    return seconds_between(t0, Clock::now());
  }

  /// Random read-modify-writes over a 64 KiB table, about 1 ms. The
  /// table is swept untimed first, so the loop does not pay for whatever
  /// the preceding job evicted.
  double probe() {
    std::uint64_t x = 0;
    for (const std::uint32_t v : table_) x += v;
    const auto t0 = Clock::now();
    SplitMix64 rng(x);
    for (int i = 0; i < 150000; ++i) {
      std::uint32_t& slot = table_[(x ^ rng.next()) & (table_.size() - 1)];
      x += slot++;
    }
    const double t = seconds_between(t0, Clock::now());
    sink_ = x;
    best_probe_ = std::min(best_probe_, t);
    return t;
  }

  /// Probes every allowed CPU and stays on the fastest; returns whether
  /// that is another CPU than before.
  bool move_to_fastest_cpu() {
    const int before = sched_getcpu();
    int best_cpu = -1;
    double best_t = 0.0;
    for (const int c : cpus_) {
      if (!pin(c)) continue;
      const double t = probe();
      if (best_cpu < 0 || t < best_t) {
        best_cpu = c;
        best_t = t;
      }
    }
    if (best_cpu >= 0) pin(best_cpu);
    return best_cpu >= 0 && best_cpu != before;
  }

  static bool pin(int cpu) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return sched_setaffinity(0, sizeof set, &set) == 0;
  }

  std::vector<std::uint32_t> table_;
  std::vector<int> cpus_;
  double best_probe_ = std::numeric_limits<double>::infinity();
  double last_ = 0.0;
  volatile std::uint64_t sink_ = 0;
};

/// Raw wall times of a series of intervals and the host-speed scale of
/// each.
struct Series {
  std::vector<double> wall_s;
  std::vector<double> scale;

  void add(double wall, double s) {
    wall_s.push_back(wall);
    scale.push_back(s);
  }
  void write(JsonWriter& j, const char* name) const {
    j.key(name).begin_object();
    j.key("wall_s").begin_array();
    for (const double v : wall_s) j.value(v);
    j.end_array();
    j.key("scale").begin_array();
    for (const double v : scale) j.value(v);
    j.end_array();
    j.end_object();
  }
};

long long peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

void write_counts(JsonWriter& w, const Counts& c) {
  w.key("counts")
      .begin_object()
      .field("sim.cycles", c.cycles)
      .field("sim.busy_thread_cycles", c.busy_thread_cycles)
      .field("sim.mem_requests", c.mem_requests)
      .field("sim.row_hit_rate", c.row_hit_rate)
      .field("sim.direct_dispatch", c.direct_dispatch)
      .field("sim.batched_mem", c.batched_mem)
      .field("sim.ff_phases", c.ff_phases)
      .field("sim.ff_cycles_skipped", c.ff_cycles_skipped)
      .field("sim.ff_model_rejects", c.ff_model_rejects)
      .field("trace.records", c.trace_records)
      .field("trace.bytes", c.trace_bytes)
      .field("trace.flush_bursts", c.flush_bursts)
      .field("runner.cache_hits", c.cache_hit ? 1 : 0)
      .field("runner.cache_misses", c.cache_hit ? 0 : 1)
      .end_object();
}

int run(const Workload& w, std::uint64_t seed, double seconds, bool traced,
        const std::string& spans_path) {
  std::vector<Inputs> inputs = make_inputs(w, seed);
  std::vector<float> out(w.gemm ? std::size_t(w.dim) * std::size_t(w.dim)
                                : std::size_t{1});
  Tally tally;
  SpeedGauge gauge;

  // Set-up: kernel build, cold compile through a fresh design cache, and
  // one warm-up job, repeated; the last cache serves the timed phase.
  Series setup;
  std::optional<runner::DesignCache> cache;
  for (int rep = 0; rep < w.setups; ++rep) {
    const auto t0 = Clock::now();
    cache.emplace();
    cache->get_or_compile(w.factory(w), hls::HlsOptions{});
    tally.add(run_job(w, *cache, inputs[0], out, nullptr));
    setup.add(seconds_between(t0, Clock::now()), gauge.scale());
  }

  // Timed phase: closed loop, one job in flight.
  Tracer tracer;
  Series jobs;
  Series traced_jobs;
  std::int64_t busy = 0;
  const auto start = Clock::now();
  for (int i = 0; seconds_between(start, Clock::now()) < seconds; ++i) {
    Inputs& in = inputs[std::size_t(i % kInputSets)];
    const JobOutcome o = run_job(w, *cache, in, out, nullptr);
    tally.add(o);
    jobs.add(o.wall_s, gauge.scale());
    busy += o.counts.busy_thread_cycles;
    if (traced) {
      tracer.set_job(i);
      const JobOutcome t = run_job(w, *cache, in, out, &tracer);
      tally.add(t);
      traced_jobs.add(t.wall_s, gauge.scale());
      run_without_profiling(w, *cache, in, out, tracer);
      gauge.scale();  // the next job's interval starts here
    }
  }

  if (tally.drifted) {
    std::fprintf(stderr,
                 "%s: per-job counts differ between jobs of one run; the "
                 "simulator is not deterministic\n",
                 w.name);
    return 3;
  }
  if (!tally.first_error.empty()) {
    std::fprintf(stderr, "%s: %lld of %lld jobs failed; first: %s\n", w.name,
                 tally.failed, tally.attempted, tally.first_error.c_str());
  }
  if (traced) tracer.write(spans_path);

  JsonWriter j;
  j.begin_object()
      .field("workload", w.name)
      .field("attempted", tally.attempted)
      .field("failed", tally.failed)
      .field("busy_thread_cycles", busy)
      .field("peak_rss_kb", peak_rss_kb());
  setup.write(j, "setup");
  jobs.write(j, "jobs");
  traced_jobs.write(j, "traced_jobs");
  write_counts(j, tally.reference.value_or(Counts{}));
  j.end_object();
  std::printf("%s\n", j.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  long long seed = 1;
  long long seconds = 10;
  long long trace = 0;
  std::string spans = "spans.jsonl";
  ArgParser args;
  args.option("workload", &workload, "workload name")
      .option_int("seed", &seed, "input seed")
      .option_int("seconds", &seconds, "length of the timed phase")
      .option_int("trace", &trace, "1 = traced run")
      .option("spans", &spans, "span output file (traced run)");
  const bool parsed = args.parse(argc, argv);
  const std::vector<Workload> all = make_workloads();
  const auto it = std::find_if(all.begin(), all.end(), [&](const Workload& w) {
    return w.name == workload;
  });
  if (!parsed || it == all.end() || seconds < 1 ||
      (trace != 0 && trace != 1)) {
    std::fprintf(stderr, "usage: hlsprof-perfbench --workload=NAME ...\n%s%s\n",
                 args.help_text().c_str(), args.error().c_str());
    return 2;
  }
  return run(*it, std::uint64_t(seed), double(seconds), trace == 1, spans);
}
