#include "runner/job_event.hpp"

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

std::string format_job_event(const JobEvent& e) {
  JsonWriter w;
  w.begin_object();
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

}  // namespace hlsprof::runner
