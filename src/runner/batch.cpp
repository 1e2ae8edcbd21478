#include "runner/batch.hpp"

#include <chrono>
#include <exception>
#include <mutex>
#include <optional>
#include <utility>

#include "paraver/analysis.hpp"
#include "runner/pool.hpp"
#include "telemetry/telemetry.hpp"

namespace hlsprof::runner {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

void fill_metrics(JobResult& out, const core::Session& session,
                  const core::RunResult& r) {
  const hls::Design& d = session.design();
  out.fmax_mhz = d.fmax_mhz;
  out.alm = d.area.alm;
  out.bram_bits = d.area.bram_bits;
  out.num_threads = d.stats.num_threads;

  out.total_cycles = r.sim.total_cycles;
  out.kernel_cycles = r.sim.kernel_cycles;
  out.stall_cycles = r.sim.total_stall_cycles();
  out.fp_ops = r.sim.total_fp_ops();
  out.gflops = paraver::gflops(out.fp_ops, r.sim.total_cycles, d.fmax_mhz);
  out.row_hit_rate = r.sim.row_hit_rate;

  out.has_trace = r.has_trace;
  if (r.has_trace) {
    const auto st = paraver::summarize_states(r.timeline);
    out.state_idle = st.idle;
    out.state_running = st.running;
    out.state_critical = st.critical;
    out.state_spinning = st.spinning;
    out.state_records = r.state_records;
    out.event_records = r.event_records;
    out.flush_bursts = r.flush_bursts;
    out.trace_bytes = r.trace_bytes;
    out.peak_trace_buffer_bytes = r.peak_trace_buffer_bytes;
    const auto oh = session.overhead();
    out.overhead_alm_pct = oh.alm_pct;
    out.overhead_register_pct = oh.register_pct;
    out.state_cycles = r.timeline.state_cycles();
    out.trace_dram_bytes =
        r.timeline.event_total(trace::EventKind::bytes_read) +
        r.timeline.event_total(trace::EventKind::bytes_written);
  }
}

/// Runs `f` inside a `runner` span named `name`: one child of the job's
/// span per phase, so a job's milliseconds are attributed in its trace.
template <typename F>
decltype(auto) in_span(telemetry::Registry& reg, const char* name, F&& f) {
  telemetry::Span span(reg, name, "runner");
  return f();
}

JobResult run_job(const JobSpec& spec, int index, std::uint64_t seed,
                  DesignCache& cache, const BatchOptions& options) {
  auto& reg = telemetry::Registry::global();
  telemetry::Span span(reg, "job:" + spec.name, "runner");
  JobResult out;
  out.index = index;
  out.name = spec.name;
  out.seed = seed;
  const auto t0 = Clock::now();
  try {
    HLSPROF_CHECK(spec.kernel != nullptr, "JobSpec '" + spec.name +
                                              "' has no kernel factory");
    SplitMix64 rng(seed);
    ir::Kernel kernel =
        in_span(reg, "job.kernel", [&] { return spec.kernel(rng); });

    DesignCache::Entry entry = in_span(reg, "job.cache", [&] {
      return cache.get_or_compile(std::move(kernel), spec.hls);
    });
    out.design_key = entry.key;
    out.cache_hit = entry.hit;

    core::RunOptions opts = spec.run;
    if (spec.max_cycles != 0) opts.sim.max_cycles = spec.max_cycles;
    if (options.on_trace) {
      opts.trace_progress = [&options, index,
                             &spec](const trace::TimedTraceBuilder& b) {
        options.on_trace(index, spec.name, b);
      };
    }

    std::optional<core::Session> session;
    in_span(reg, "job.session",
            [&] { session.emplace(entry.design, std::move(opts)); });
    HostBuffers buffers;
    if (spec.bind) {
      in_span(reg, "job.bind", [&] { spec.bind(*session, buffers, rng); });
    }
    core::RunResult r = session->run();
    in_span(reg, "job.analysis", [&] { fill_metrics(out, *session, r); });
    if (spec.check) {
      in_span(reg, "job.check", [&] { spec.check(r, buffers); });
    }
    // Destroy the session (simulator, DRAM, profiling unit), the run's
    // timeline and the host buffers inside the span.
    in_span(reg, "job.teardown", [&] {
      session.reset();
      r = core::RunResult{};
      buffers = HostBuffers{};
    });
    out.status = JobStatus::ok;
  } catch (const std::exception& e) {
    out.status = JobStatus::failed;
    out.error = e.what();
  } catch (...) {
    out.status = JobStatus::failed;
    out.error = "unknown exception";
  }
  out.wall_ms = ms_since(t0);
  if (out.status == JobStatus::ok && spec.soft_timeout_ms > 0 &&
      out.wall_ms > spec.soft_timeout_ms) {
    out.status = JobStatus::timed_out;
    out.error = "exceeded soft wall-clock budget";
  }
  if (reg.enabled()) {
    reg.counter("runner.jobs").add(1);
    if (out.status != JobStatus::ok) reg.counter("runner.jobs_failed").add(1);
    reg.histogram("runner.job_ms", telemetry::exp_bounds(1.0, 2.0, 16), "ms")
        .observe(out.wall_ms);
  }
  return out;
}

}  // namespace

const char* job_status_name(JobStatus s) {
  switch (s) {
    case JobStatus::ok: return "ok";
    case JobStatus::failed: return "failed";
    case JobStatus::timed_out: return "timed_out";
  }
  return "?";
}

int BatchResult::count(JobStatus s) const {
  int n = 0;
  for (const auto& j : jobs) n += (j.status == s) ? 1 : 0;
  return n;
}

int Batch::add(JobSpec spec) {
  jobs_.push_back(std::move(spec));
  return int(jobs_.size()) - 1;
}

std::uint64_t Batch::job_seed(std::uint64_t base, int index) {
  // Index-keyed (not draw-order-keyed) derivation: job i's stream is the
  // same no matter which worker picks it up or in what order.
  SplitMix64 mixer(base ^ (0x9e3779b97f4a7c15ULL * std::uint64_t(index + 1)));
  return mixer.next();
}

BatchResult Batch::run(const BatchOptions& options) const {
  auto& reg = telemetry::Registry::global();
  telemetry::Span batch_span(reg, "batch.run", "runner");

  BatchResult result;
  result.jobs.resize(jobs_.size());
  result.workers = Pool::resolve_workers(options.workers);
  if (reg.enabled()) {
    reg.gauge("runner.workers", "threads").set(double(result.workers));
  }

  DesignCache local_cache;
  DesignCache& cache = options.cache != nullptr ? *options.cache : local_cache;
  if (!options.cache_dir.empty() && cache.disk() == nullptr) {
    cache.attach_disk({options.cache_dir, options.cache_max_bytes});
  }
  const CacheStats before = cache.stats();

  const auto t0 = std::chrono::steady_clock::now();
  // Runs job i into its slot, then announces it. The lock numbers the
  // event and delivers it in one step, so events arrive in `done` order.
  std::mutex event_mu;
  std::size_t done = 0;
  const auto run_one = [&](int i) {
    const JobSpec& spec = jobs_[std::size_t(i)];
    const std::uint64_t seed =
        spec.seed != 0 ? spec.seed : job_seed(options.seed, i);
    JobResult& job = result.jobs[std::size_t(i)];
    job = run_job(spec, i, seed, cache, options);
    if (options.on_job_event) {
      std::lock_guard<std::mutex> lock(event_mu);
      options.on_job_event(make_job_event(job, ++done, jobs_.size()));
    }
  };
  {
    Pool pool(result.workers);
    for (int i = 0; i < int(jobs_.size()); ++i) {
      pool.submit([&run_one, i] { run_one(i); });
    }
    pool.wait();
  }
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();

  const CacheStats after = cache.stats();
  result.cache_hits = after.hits - before.hits;
  result.cache_misses = after.misses - before.misses;
  return result;
}

}  // namespace hlsprof::runner
