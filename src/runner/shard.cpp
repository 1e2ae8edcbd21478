#include "runner/shard.hpp"

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "runner/manifest.hpp"
#include "runner/pool.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"

namespace hlsprof::runner {

namespace fs = std::filesystem;

namespace {

/// Key of a `key = value` manifest line; empty for blanks and comments.
std::string line_key(const std::string& line) {
  const std::string t = trim(line);
  if (t.empty() || t[0] == '#') return std::string();
  const auto eq = t.find('=');
  if (eq == std::string::npos) return std::string();
  return trim(t.substr(0, eq));
}

std::string read_file_or_empty(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f.good()) return std::string();
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

const JsonValue& need(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) {
    fail(strf("shard: report is missing field \"%s\"", key));
  }
  return *v;
}

JobStatus status_from_name(const std::string& name) {
  if (const auto s = job_status_from_name(name)) return *s;
  fail("shard: report has unknown job status \"" + name + "\"");
}

std::uint64_t key_from_hex(const std::string& hex) {
  try {
    std::size_t used = 0;
    const unsigned long long v = std::stoull(hex, &used, 16);
    if (used == hex.size() && !hex.empty()) return v;
  } catch (const std::exception&) {
  }
  fail("shard: report has malformed design_key \"" + hex + "\"");
}

}  // namespace

ShardStrategy shard_strategy_from_name(const std::string& name) {
  if (name == "block") return ShardStrategy::block;
  if (name == "round_robin" || name == "round-robin") {
    return ShardStrategy::round_robin;
  }
  fail("shard: unknown strategy \"" + name +
       "\" (expected block or round_robin)");
}

std::vector<std::vector<int>> split_indices(const std::vector<int>& universe,
                                            int shards,
                                            ShardStrategy strategy) {
  HLSPROF_CHECK(shards >= 1, "shard: shard count must be >= 1");
  std::vector<std::vector<int>> out;
  out.resize(std::size_t(shards));
  if (strategy == ShardStrategy::round_robin) {
    for (std::size_t i = 0; i < universe.size(); ++i) {
      out[i % std::size_t(shards)].push_back(universe[i]);
    }
    return out;
  }
  // block: contiguous chunks, the first (size % shards) chunks one longer.
  const std::size_t base = universe.size() / std::size_t(shards);
  std::size_t extra = universe.size() % std::size_t(shards);
  std::size_t pos = 0;
  for (auto& chunk : out) {
    std::size_t n = base + (extra > 0 ? 1 : 0);
    if (extra > 0) --extra;
    for (std::size_t k = 0; k < n; ++k) chunk.push_back(universe[pos++]);
  }
  return out;
}

std::string make_sub_manifest(const std::string& manifest_text,
                              const std::vector<int>& indices,
                              long long seed_override, bool approx_trace) {
  HLSPROF_CHECK(!indices.empty(), "shard: empty index list");
  std::string out;
  std::istringstream in(manifest_text);
  std::string line;
  while (std::getline(in, line)) {
    const std::string key = line_key(line);
    if (key == "select" || key == "out") continue;
    if (key == "seed" && seed_override >= 0) continue;
    if (key == "approx_trace" && approx_trace) continue;
    out += line;
    out += '\n';
  }
  out += "select = ";
  for (std::size_t i = 0; i < indices.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(indices[i]);
  }
  out += '\n';
  if (seed_override >= 0) {
    out += "seed = " + std::to_string(seed_override) + "\n";
  }
  if (approx_trace) out += "approx_trace = on\n";
  return out;
}

std::vector<JobResult> parse_report_jobs(
    const std::string& report_json_text) {
  const JsonValue doc = json_parse(report_json_text);
  const std::string& schema = need(doc, "schema").as_string();
  if (schema != "hlsprof-batch-report") {
    fail("shard: unexpected report schema \"" + schema + "\"");
  }
  std::vector<JobResult> out;
  for (const JsonValue& jv : need(doc, "jobs").items()) {
    JobResult j;
    j.index = int(need(jv, "index").as_int64());
    j.name = need(jv, "name").as_string();
    j.status = status_from_name(need(jv, "status").as_string());
    if (const JsonValue* e = jv.find("error")) j.error = e->as_string();
    j.seed = need(jv, "seed").as_uint64();
    j.design_key = key_from_hex(need(jv, "design_key").as_string());
    const JsonValue& design = need(jv, "design");
    j.fmax_mhz = need(design, "fmax_mhz").as_double();
    j.alm = need(design, "alm").as_double();
    j.bram_bits = need(design, "bram_bits").as_double();
    j.num_threads = int(need(design, "num_threads").as_int64());
    const JsonValue& run = need(jv, "run");
    j.total_cycles = cycle_t(need(run, "total_cycles").as_uint64());
    j.kernel_cycles = cycle_t(need(run, "kernel_cycles").as_uint64());
    j.stall_cycles = cycle_t(need(run, "stall_cycles").as_uint64());
    j.fp_ops = need(run, "fp_ops").as_int64();
    j.gflops = need(run, "gflops").as_double();
    j.row_hit_rate = need(run, "row_hit_rate").as_double();
    const JsonValue& trace = need(jv, "trace");
    j.has_trace = need(trace, "has_trace").as_bool();
    j.state_idle = need(trace, "state_idle").as_double();
    j.state_running = need(trace, "state_running").as_double();
    j.state_critical = need(trace, "state_critical").as_double();
    j.state_spinning = need(trace, "state_spinning").as_double();
    j.state_records = need(trace, "state_records").as_int64();
    j.event_records = need(trace, "event_records").as_int64();
    j.flush_bursts = need(trace, "flush_bursts").as_int64();
    j.trace_bytes = need(trace, "trace_bytes").as_uint64();
    j.peak_trace_buffer_bytes =
        need(trace, "peak_trace_buffer_bytes").as_uint64();
    j.overhead_alm_pct = need(trace, "overhead_alm_pct").as_double();
    j.overhead_register_pct =
        need(trace, "overhead_register_pct").as_double();
    out.push_back(std::move(j));
  }
  return out;
}

BatchResult merge_job_results(
    const std::vector<std::vector<JobResult>>& per_shard,
    const std::vector<int>& expected_indices, int* duplicates) {
  std::unordered_map<int, std::size_t> slot_of;
  slot_of.reserve(expected_indices.size());
  for (std::size_t k = 0; k < expected_indices.size(); ++k) {
    slot_of.emplace(expected_indices[k], k);
  }
  BatchResult merged;
  merged.jobs.resize(expected_indices.size());
  std::unordered_set<int> remaining(expected_indices.begin(),
                                    expected_indices.end());
  int dups = 0;
  for (const auto& shard_jobs : per_shard) {
    for (const JobResult& j : shard_jobs) {
      const auto it = slot_of.find(j.index);
      if (it == slot_of.end()) {
        fail(strf("shard: merged report contains unexpected job index %d",
                  j.index));
      }
      if (remaining.erase(j.index) == 0) {
        ++dups;  // a later byte-identical copy; first one already won
        continue;
      }
      merged.jobs[it->second] = j;
    }
  }
  if (!remaining.empty()) {
    int lowest = *remaining.begin();
    for (int i : remaining) lowest = std::min(lowest, i);
    fail(strf("shard: no shard delivered job index %d (%zu missing)",
              lowest, remaining.size()));
  }
  rebase_cache_stats(merged);
  if (duplicates != nullptr) *duplicates = dups;
  return merged;
}

namespace {

struct Event {
  enum class Kind { job_done, shard_exit };
  Kind kind = Kind::job_done;
  int shard = 0;
  // job_done
  std::string line;
  JobEvent job;
  // shard_exit
  bool ok = false;
  std::string report;  // canonical report JSON when ok
  std::string error;
};

/// The coordinator's one stderr funnel (ISSUE: merged progress lines
/// must never tear mid-line). Lines accumulate into a pending buffer
/// under a mutex and are flushed as a single fwrite per event-loop
/// drain, so output from the coordinator interleaves with the childrens'
/// inherited stderr only at batch boundaries, never inside a line.
class ProgressWriter {
 public:
  explicit ProgressWriter(
      const std::function<void(const std::string&)>& emit)
      : emit_(emit) {}

  /// Queue one line (no trailing newline).
  void note(const std::string& line) {
    std::lock_guard<std::mutex> lock(mu_);
    pending_ += line;
    pending_ += '\n';
  }

  /// Write everything queued since the last flush in one atomic batch.
  void flush() {
    std::string batch;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (pending_.empty()) return;
      batch.swap(pending_);
    }
    if (emit_) {
      emit_(batch);
      return;
    }
    std::fwrite(batch.data(), 1, batch.size(), stderr);
    std::fflush(stderr);
  }

 private:
  const std::function<void(const std::string&)>& emit_;
  std::mutex mu_;
  std::string pending_;
};

struct ShardTelemetry {
  telemetry::Counter& launched;
  telemetry::Counter& redispatched;
  telemetry::Counter& jobs_redispatched;
  telemetry::Counter& duplicates;
  telemetry::Histogram& wall_ms;
  static ShardTelemetry& get() {
    auto& reg = telemetry::Registry::global();
    static ShardTelemetry t{
        reg.counter("shard.launched"),
        reg.counter("shard.redispatched"),
        reg.counter("shard.jobs_redispatched"),
        reg.counter("shard.duplicates"),
        reg.histogram("shard.wall_ms",
                      telemetry::exp_bounds(16.0, 2.0, 16), "ms"),
    };
    return t;
  }
};

/// One launched shard (initial, replacement, or speculative backup).
struct Shard {
  int id = 0;
  std::vector<int> indices;  // original job indices it was given
  std::thread thread;
  int pid = -1;  // process mode; -1 in daemon mode
  std::chrono::steady_clock::time_point start;
  bool exited = false;
  bool speculated = false;  // a backup was already launched for it
  /// Launch time on the coordinator's telemetry clock (µs since the
  /// registry epoch): the offset that rebases this child's trace onto
  /// the fleet timeline.
  std::uint64_t t0_us = 0;
  std::string chrome_path;  // child's own Perfetto file (merge input)
};

class Coordinator {
 public:
  Coordinator(std::string manifest_text, const ShardOptions& opt)
      : text_(std::move(manifest_text)), opt_(opt) {}

  ~Coordinator() {
    // Defensive: on any exit path, no child outlives the coordinator and
    // every reader thread is joined.
    kill_running();
    for (auto& s : shards_) {
      if (s->thread.joinable()) s->thread.join();
    }
    for (auto& s : shards_) {
      // Reap children whose exit events were never processed (error
      // paths); ECHILD for already-reaped ones is harmless.
      if (s->pid > 0 && !s->exited) {
        int status = 0;
        while (::waitpid(pid_t(s->pid), &status, 0) < 0 && errno == EINTR) {
        }
      }
    }
    if (!tmpdir_.empty()) {
      std::error_code ec;
      fs::remove_all(tmpdir_, ec);
    }
  }

  ShardResult run();

 private:
  using clock = std::chrono::steady_clock;

  void prepare();
  void launch(std::vector<int> indices);
  void launch_process_shard(Shard& s);
  void launch_daemon_shard(Shard& s);
  void handle_event(const Event& e);
  void handle_exit(const Event& e);
  void redispatch(const Shard& from, std::vector<int> outstanding,
                  const std::string& why, bool speculative);
  void check_stragglers();
  void kill_running();
  std::vector<int> outstanding_of(const Shard& s) const;
  double elapsed_ms(clock::time_point since) const {
    return std::chrono::duration<double, std::milli>(clock::now() - since)
        .count();
  }

  void push(Event e) {
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(std::move(e));
    cv_.notify_one();
  }

  void write_merged_chrome_trace();

  std::string text_;
  const ShardOptions& opt_;
  ProgressWriter progress_{opt_.emit_progress};

  ManifestRun run_;           // parsed once for label/out/size
  std::vector<int> universe_;  // indices the merged result must cover
  std::unordered_map<int, std::size_t> slot_of_;
  std::vector<JobResult> slots_;
  std::unordered_set<int> remaining_;
  std::unordered_set<int> progressed_;  // distinct indices seen on pipes

  std::string tmpdir_;
  std::string runner_binary_;
  int workers_per_shard_ = 1;
  int redispatches_ = 0;
  int max_redispatch_ = 0;
  int duplicates_ = 0;
  std::size_t daemon_rr_ = 0;  // round-robin cursor over opt_.connect
  std::vector<double> completed_walls_;
  std::string fatal_;

  // unique_ptr: Shard holds a thread and is referenced by id across
  // reallocation of the vector.
  std::vector<std::unique_ptr<Shard>> shards_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Event> events_;
};

void Coordinator::prepare() {
  HLSPROF_CHECK(opt_.shards >= 1, "shard: --shards must be >= 1");
  const bool daemon_mode = !opt_.connect.empty();
  if (daemon_mode) {
    HLSPROF_CHECK(opt_.submit != nullptr,
                  "shard: daemon mode requires a submit hook");
  }

  run_ = parse_manifest(text_);
  HLSPROF_CHECK(run_.batch.size() > 0, "shard: manifest expands to no jobs");
  if (run_.options.select.empty()) {
    universe_.resize(run_.batch.size());
    for (std::size_t i = 0; i < universe_.size(); ++i) universe_[i] = int(i);
  } else {
    universe_ = run_.options.select;  // shard over the manifest's own subset
  }
  slots_.resize(universe_.size());
  for (std::size_t k = 0; k < universe_.size(); ++k) {
    slot_of_.emplace(universe_[k], k);
  }
  remaining_.insert(universe_.begin(), universe_.end());

  max_redispatch_ =
      opt_.max_redispatch > 0 ? opt_.max_redispatch : 2 * opt_.shards;
  workers_per_shard_ =
      opt_.workers_per_shard > 0
          ? opt_.workers_per_shard
          : std::max(1, Pool::resolve_workers(0) / opt_.shards);

  if (!daemon_mode) {
    if (!opt_.runner_binary.empty()) {
      runner_binary_ = opt_.runner_binary;
    } else {
      char buf[4096];
      const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
      HLSPROF_CHECK(n > 0, "shard: cannot resolve the runner binary "
                           "(/proc/self/exe unreadable)");
      buf[n] = '\0';
      runner_binary_ = buf;
    }
    if (::access(runner_binary_.c_str(), X_OK) != 0) {
      fail("shard: runner binary is not executable: " + runner_binary_);
    }
    std::string tmpl =
        (fs::temp_directory_path() / "hlsprof-shard-XXXXXX").string();
    std::vector<char> mut(tmpl.begin(), tmpl.end());
    mut.push_back('\0');
    HLSPROF_CHECK(::mkdtemp(mut.data()) != nullptr,
                  "shard: cannot create scratch directory");
    tmpdir_ = mut.data();
  }
}

void Coordinator::launch(std::vector<int> indices) {
  auto shard = std::make_unique<Shard>();
  shard->id = int(shards_.size());
  shard->indices = std::move(indices);
  shard->start = clock::now();
  Shard& s = *shards_.emplace_back(std::move(shard));
  auto& reg = telemetry::Registry::global();
  if (reg.enabled()) ShardTelemetry::get().launched.add(1);
  if (opt_.connect.empty()) {
    launch_process_shard(s);
  } else {
    launch_daemon_shard(s);
  }
}

void Coordinator::launch_process_shard(Shard& s) {
  const std::string manifest_path =
      (fs::path(tmpdir_) / strf("shard-%d.manifest", s.id)).string();
  const std::string out_prefix =
      (fs::path(tmpdir_) / strf("shard-%d", s.id)).string();
  {
    std::ofstream f(manifest_path, std::ios::trunc);
    HLSPROF_CHECK(f.good(), "shard: cannot write " + manifest_path);
    f << make_sub_manifest(text_, s.indices, opt_.seed_override,
                           opt_.approx_trace);
  }

  std::vector<std::string> args = {
      runner_binary_,
      manifest_path,
      "--canonical",
      "--quiet",
      "--progress",
      "--out=" + out_prefix,
      "--workers=" + std::to_string(workers_per_shard_),
  };
  if (!opt_.cache_dir.empty()) {
    args.push_back("--cache-dir=" + opt_.cache_dir);
    if (opt_.cache_max_bytes != 0) {
      args.push_back("--cache-max-bytes=" +
                     std::to_string(opt_.cache_max_bytes));
    }
  }
  if (!opt_.child_telemetry_prefix.empty()) {
    args.push_back("--telemetry-out=" + opt_.child_telemetry_prefix +
                   std::to_string(s.id) + ".json");
  }
  if (!opt_.chrome_trace_out.empty()) {
    s.chrome_path =
        (fs::path(tmpdir_) / strf("shard-%d.trace.json", s.id)).string();
    args.push_back("--chrome-trace=" + s.chrome_path);
  }
  s.t0_us = telemetry::Registry::global().now_us();
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  int fds[2];
  HLSPROF_CHECK(::pipe(fds) == 0, "shard: pipe failed");
  const pid_t pid = ::fork();
  HLSPROF_CHECK(pid >= 0, "shard: fork failed");
  if (pid == 0) {
    // Child: progress lines go up the pipe; stderr stays inherited.
    // Only async-signal-safe calls between fork and exec.
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  s.pid = int(pid);
  if (opt_.on_spawn) opt_.on_spawn(s.id, s.pid);

  const int shard_id = s.id;
  const int read_fd = fds[0];
  const std::string report_path = out_prefix + ".json";
  s.thread = std::thread([this, shard_id, read_fd, pid, report_path] {
    std::FILE* f = ::fdopen(read_fd, "r");
    if (f != nullptr) {
      char* line = nullptr;
      std::size_t cap = 0;
      ssize_t n = 0;
      while ((n = ::getline(&line, &cap, f)) >= 0) {
        const std::string raw(line, std::size_t(n));
        Event e;
        e.kind = Event::Kind::job_done;
        e.shard = shard_id;
        // Anything that is not a job event is stdout chatter: ignored.
        if (parse_job_event(raw, &e.job)) {
          e.line = trim(raw);
          push(std::move(e));
        }
      }
      std::free(line);
      std::fclose(f);
    } else {
      ::close(read_fd);
    }
    // Peek the exit status WITHOUT reaping (WNOWAIT): the coordinator
    // may still SIGKILL this pid (straggler cleanup), which must never
    // race with pid recycling. The coordinator reaps after it marks the
    // shard exited, at which point it will never signal the pid again.
    siginfo_t si{};
    while (::waitid(P_PID, id_t(pid), &si, WEXITED | WNOWAIT) < 0 &&
           errno == EINTR) {
    }
    Event e;
    e.kind = Event::Kind::shard_exit;
    e.shard = shard_id;
    // Exit 1 means some jobs failed — their failures belong in the
    // merged report, so the shard itself still succeeded.
    if (si.si_code == CLD_EXITED && (si.si_status == 0 || si.si_status == 1)) {
      e.report = read_file_or_empty(report_path);
      e.ok = !e.report.empty();
      if (!e.ok) e.error = "exited cleanly but wrote no report";
    } else if (si.si_code == CLD_KILLED || si.si_code == CLD_DUMPED) {
      e.error = strf("killed by signal %d", si.si_status);
    } else {
      e.error = strf("exited with status %d%s", si.si_status,
                     si.si_status == 127 ? " (exec failed?)" : "");
    }
    push(std::move(e));
  });
}

void Coordinator::launch_daemon_shard(Shard& s) {
  const std::string socket = opt_.connect[daemon_rr_++ % opt_.connect.size()];
  const std::string manifest = make_sub_manifest(
      text_, s.indices, opt_.seed_override, opt_.approx_trace);
  const int shard_id = s.id;
  s.thread = std::thread([this, shard_id, socket, manifest] {
    Event e;
    e.kind = Event::Kind::shard_exit;
    e.shard = shard_id;
    try {
      e.report = opt_.submit(socket, manifest, strf("shard-%d", shard_id));
      e.ok = !e.report.empty();
      if (!e.ok) e.error = "daemon at " + socket + " returned no report";
    } catch (const std::exception& ex) {
      e.error = ex.what();
    }
    push(std::move(e));
  });
}

std::vector<int> Coordinator::outstanding_of(const Shard& s) const {
  std::vector<int> out;
  for (int i : s.indices) {
    if (remaining_.count(i) != 0) out.push_back(i);
  }
  return out;
}

void Coordinator::redispatch(const Shard& from, std::vector<int> outstanding,
                             const std::string& why, bool speculative) {
  if (!fatal_.empty()) return;
  if (redispatches_ >= max_redispatch_) {
    if (speculative) return;  // speculation is optional; give up quietly
    fatal_ = strf("shard: re-dispatch budget (%d) exhausted; shard %d %s "
                  "with %zu jobs outstanding",
                  max_redispatch_, from.id, why.c_str(), outstanding.size());
    return;
  }
  ++redispatches_;
  auto& reg = telemetry::Registry::global();
  if (reg.enabled()) {
    ShardTelemetry& t = ShardTelemetry::get();
    t.redispatched.add(1);
    t.jobs_redispatched.add(static_cast<long long>(outstanding.size()));
  }
  if (!opt_.quiet) {
    progress_.note(strf("hlsprof-run: shard %d %s; re-dispatching %zu jobs "
                        "as shard %zu",
                        from.id, why.c_str(), outstanding.size(),
                        shards_.size()));
  }
  launch(std::move(outstanding));
}

void Coordinator::handle_exit(const Event& e) {
  Shard& s = *shards_[std::size_t(e.shard)];
  s.exited = true;
  if (s.pid > 0) {
    // Safe to reap now: with `exited` set, this pid is never signalled
    // again, so recycling cannot misdirect a kill.
    int status = 0;
    while (::waitpid(pid_t(s.pid), &status, 0) < 0 && errno == EINTR) {
    }
  }
  const double wall = elapsed_ms(s.start);
  auto& reg = telemetry::Registry::global();
  if (reg.enabled()) ShardTelemetry::get().wall_ms.observe(wall);

  if (e.ok) {
    completed_walls_.push_back(wall);
    std::vector<JobResult> jobs;
    try {
      jobs = parse_report_jobs(e.report);
    } catch (const std::exception& ex) {
      const std::vector<int> outstanding = outstanding_of(s);
      if (!outstanding.empty()) {
        redispatch(s, outstanding,
                   strf("returned an unreadable report (%s)", ex.what()),
                   /*speculative=*/false);
      }
      return;
    }
    for (JobResult& j : jobs) {
      const auto it = slot_of_.find(j.index);
      if (it == slot_of_.end()) continue;  // not ours (defensive)
      if (remaining_.erase(j.index) == 0) {
        ++duplicates_;  // a speculative copy finished twice
        if (reg.enabled()) ShardTelemetry::get().duplicates.add(1);
        continue;
      }
      slots_[it->second] = std::move(j);
    }
    // A clean report that still left some of the shard's jobs unmerged
    // (truncated select handling would be a bug, but stay robust).
    const std::vector<int> missing = outstanding_of(s);
    if (!missing.empty()) {
      redispatch(s, missing, "delivered an incomplete report",
                 /*speculative=*/false);
    }
    return;
  }

  const std::vector<int> outstanding = outstanding_of(s);
  if (outstanding.empty()) return;  // redundant copy we killed; expected
  redispatch(s, outstanding, e.error, /*speculative=*/false);
}

void Coordinator::handle_event(const Event& e) {
  if (e.kind == Event::Kind::shard_exit) {
    handle_exit(e);
    return;
  }
  if (!progressed_.insert(e.job.index).second) return;
  if (opt_.on_job_event) opt_.on_job_event(e.shard, e.line, e.job);
  if (!opt_.quiet) {
    progress_.note(strf("hlsprof-run: [shard %d] %s %s (%zu/%zu)", e.shard,
                        e.job.name.c_str(), job_status_name(e.job.status),
                        progressed_.size(), universe_.size()));
  }
}

void Coordinator::check_stragglers() {
  // Process mode only: a daemon submission cannot be abandoned, so a
  // speculative duplicate could not be cancelled and its thread would
  // block past the end of the run.
  if (!opt_.connect.empty() || opt_.straggler_factor <= 0) return;
  if (completed_walls_.size() < 2) return;
  std::vector<double> walls = completed_walls_;
  const std::size_t mid = walls.size() / 2;
  std::nth_element(walls.begin(), walls.begin() + mid, walls.end());
  const double median = walls[mid];
  const double threshold =
      std::max(opt_.straggler_min_ms, opt_.straggler_factor * median);
  const std::size_t launched = shards_.size();
  for (std::size_t k = 0; k < launched; ++k) {
    Shard& s = *shards_[k];
    if (s.exited || s.speculated) continue;
    if (elapsed_ms(s.start) <= threshold) continue;
    const std::vector<int> outstanding = outstanding_of(s);
    if (outstanding.empty()) continue;
    s.speculated = true;
    redispatch(s, outstanding,
               strf("is a straggler (%.0f ms vs %.0f ms median)",
                    elapsed_ms(s.start), median),
               /*speculative=*/true);
  }
}

void Coordinator::kill_running() {
  for (auto& sp : shards_) {
    if (!sp->exited && sp->pid > 0) ::kill(pid_t(sp->pid), SIGKILL);
  }
}

ShardResult Coordinator::run() {
  const clock::time_point t0 = clock::now();
  prepare();

  const std::vector<std::vector<int>> parts =
      split_indices(universe_, opt_.shards, opt_.strategy);
  for (const auto& p : parts) {
    if (!p.empty()) launch(p);
  }

  const auto all_exited = [&] {
    for (const auto& sp : shards_) {
      if (!sp->exited) return false;
    }
    return true;
  };

  // Drive events until every job is merged (or the run is doomed and
  // every shard has come home). Killed redundant shards report their
  // (failed) exits through the same queue, so the loop also serves as
  // the drain.
  for (;;) {
    std::deque<Event> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock, std::chrono::milliseconds(200),
                   [&] { return !events_.empty(); });
      batch.swap(events_);
    }
    for (const Event& e : batch) handle_event(e);
    progress_.flush();
    if (remaining_.empty() && !all_exited()) kill_running();
    if ((remaining_.empty() || !fatal_.empty()) && all_exited()) break;
    if (!batch.empty()) continue;
    check_stragglers();
  }
  for (auto& sp : shards_) {
    if (sp->thread.joinable()) sp->thread.join();
  }
  if (!fatal_.empty()) fail(fatal_);
  HLSPROF_CHECK(remaining_.empty(), "shard: jobs left unmerged");

  // Child trace files live in tmpdir_ (removed by the destructor), so
  // the fleet trace must be assembled before run() returns.
  write_merged_chrome_trace();

  ShardResult out;
  out.merged.jobs = std::move(slots_);
  rebase_cache_stats(out.merged);
  out.merged.workers = workers_per_shard_ * opt_.shards;
  out.merged.wall_ms = elapsed_ms(t0);
  out.label = run_.label;
  out.out_prefix = run_.out_prefix;
  out.shards_launched = int(shards_.size());
  out.shards_redispatched = redispatches_;
  out.duplicate_jobs = duplicates_;
  return out;
}

void Coordinator::write_merged_chrome_trace() {
  if (opt_.chrome_trace_out.empty() || !opt_.connect.empty()) return;
  std::vector<telemetry::ChromeTraceInput> inputs;
  auto& reg = telemetry::Registry::global();
  if (reg.enabled()) {
    telemetry::ChromeTraceInput own;
    own.label = "coordinator";
    own.json_text = telemetry::chrome_trace_json(reg.snapshot(true));
    own.ts_offset_us = 0;  // children rebase onto this clock
    inputs.push_back(std::move(own));
  }
  for (const auto& sp : shards_) {
    if (sp->chrome_path.empty()) continue;
    telemetry::ChromeTraceInput in;
    in.label = strf("shard-%d", sp->id);
    in.json_text = read_file_or_empty(sp->chrome_path);
    in.ts_offset_us = sp->t0_us;
    if (!in.json_text.empty()) inputs.push_back(std::move(in));
  }
  telemetry::write_text_file(opt_.chrome_trace_out,
                             telemetry::merge_chrome_traces(inputs));
}

}  // namespace

ShardResult run_sharded_text(const std::string& manifest_text,
                             const ShardOptions& options) {
  Coordinator c(manifest_text, options);
  return c.run();
}

ShardResult run_sharded(const std::string& manifest_path,
                        const ShardOptions& options) {
  std::ifstream f(manifest_path, std::ios::binary);
  HLSPROF_CHECK(f.good(), "cannot open '" + manifest_path + "'");
  std::ostringstream ss;
  ss << f.rdbuf();
  return run_sharded_text(ss.str(), options);
}

}  // namespace hlsprof::runner
