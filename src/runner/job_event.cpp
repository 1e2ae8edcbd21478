#include "runner/job_event.hpp"

#include <exception>
#include <limits>

#include "common/error.hpp"
#include "common/json.hpp"

namespace hlsprof::runner {

JobEvent make_job_event(const JobResult& job, std::size_t done,
                        std::size_t jobs) {
  JobEvent e;
  e.index = job.index;
  e.status = job.status;
  e.name = job.name;
  e.cycles = job.total_cycles;
  e.threads = job.num_threads;
  e.state_cycles = job.state_cycles;
  e.bytes = job.trace_dram_bytes;
  e.done = done;
  e.jobs = jobs;
  return e;
}

std::string format_job_event(const JobEvent& e,
                             std::optional<std::uint64_t> id) {
  JsonWriter w;
  w.begin_object();
  if (id) w.field("id", *id);
  w.field("event", "job");
  w.field("index", e.index);
  w.field("status", job_status_name(e.status));
  w.field("name", e.name);
  w.field("cycles", std::uint64_t(e.cycles));
  w.field("threads", e.threads);
  w.key("state_cycles").begin_array();
  for (const std::uint64_t c : e.state_cycles) w.value(c);
  w.end_array();
  w.field("bytes", e.bytes);
  w.field("done", std::uint64_t(e.done));
  w.field("jobs", std::uint64_t(e.jobs));
  w.end_object();
  return w.str();
}

bool parse_job_event(const std::string& line, JobEvent* out) {
  try {
    const JsonValue v = json_parse(line);
    const JsonValue* kind = v.find("event");
    if (kind == nullptr || kind->as_string() != "job") return false;
    const auto need = [&v](const char* key) -> const JsonValue& {
      const JsonValue* f = v.find(key);
      if (f == nullptr) fail(std::string("job event: missing \"") + key + "\"");
      return *f;
    };
    JobEvent e;
    const std::int64_t index = need("index").as_int64();
    const std::optional<JobStatus> status =
        job_status_from_name(need("status").as_string());
    const std::int64_t threads = need("threads").as_int64();
    if (index < 0 || index > std::numeric_limits<int>::max() || !status ||
        threads < 0 || threads > 64) {
      return false;
    }
    e.index = int(index);
    e.status = *status;
    e.threads = int(threads);
    e.name = need("name").as_string();
    e.cycles = need("cycles").as_uint64();
    const std::vector<JsonValue>& states = need("state_cycles").items();
    if (states.size() != e.state_cycles.size()) return false;
    for (std::size_t s = 0; s < states.size(); ++s) {
      e.state_cycles[s] = states[s].as_uint64();
    }
    e.bytes = need("bytes").as_uint64();
    e.done = std::size_t(need("done").as_uint64());
    e.jobs = std::size_t(need("jobs").as_uint64());
    if (e.done < 1 || e.done > e.jobs) return false;
    *out = std::move(e);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace hlsprof::runner
