// The job event: the one announcement of a finished job. A single JSON
// object on one line, written and read with common/json:
//
//   {"event":"job","index":1,"status":"ok","name":"pi n=1000000",
//    "cycles":231072,"threads":8,"state_cycles":[7210,1702113,0,39253],
//    "bytes":95488,"done":2,"jobs":3}
//
// `hlsprof-run --progress` prints it on stdout (a shard child's feed to
// its coordinator, forwarded unchanged), and the serving daemon streams
// it on the socket of a `watch` submit with the request's "id" added.
// `state_cycles` (idle, running, critical, spinning) are the exact
// thread-cycles of the job's canonical timeline and `bytes` its traced
// DRAM bytes, so totals over many jobs fold without rounding.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "runner/job.hpp"

namespace hlsprof::runner {

struct JobEvent {
  int index = -1;
  JobStatus status = JobStatus::ok;
  std::string name;
  cycle_t cycles = 0;  // total simulated cycles
  int threads = 0;
  /// Thread-cycles per state; all zero when the job ran untraced.
  std::array<std::uint64_t, 4> state_cycles{};
  std::uint64_t bytes = 0;
  /// Jobs of the run finished so far, this one included, and the run's
  /// job count (a shard child counts its own slice).
  std::size_t done = 0;
  std::size_t jobs = 0;
};

JobEvent make_job_event(const JobResult& job, std::size_t done,
                        std::size_t jobs);

/// One line, no trailing newline. `id` (the daemon's request id) is
/// written first when set.
std::string format_job_event(const JobEvent& e,
                             std::optional<std::uint64_t> id = std::nullopt);

/// Parse a job-event line; other members (the daemon's "id") are
/// ignored. Returns false, leaving *out untouched, on anything that is
/// not a well-formed event: non-JSON chatter, a missing or ill-typed
/// field, an unknown status, a negative index, more than 64 threads, or
/// done outside [1, jobs].
bool parse_job_event(const std::string& line, JobEvent* out);

}  // namespace hlsprof::runner
