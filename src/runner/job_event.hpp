// The job event: the one announcement of a finished job. A single JSON
// object on one line, written with common/json:
//
//   {"event":"job","index":1,"status":"ok","name":"pi n=1000000",
//    "cycles":231072,"threads":8,"state_cycles":[7210,1702113,0,39253],
//    "bytes":95488,"done":2,"jobs":3}
//
// `hlsprof-run --progress` prints it on stdout, and the live display
// folds it into its totals (live/reporter.hpp). `state_cycles` (idle,
// running, critical, spinning) are the exact thread-cycles of the job's
// canonical timeline and `bytes` its traced DRAM bytes, so totals over
// many jobs fold without rounding.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
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
  /// job count.
  std::size_t done = 0;
  std::size_t jobs = 0;
};

JobEvent make_job_event(const JobResult& job, std::size_t done,
                        std::size_t jobs);

/// One line, no trailing newline.
std::string format_job_event(const JobEvent& e);

}  // namespace hlsprof::runner
