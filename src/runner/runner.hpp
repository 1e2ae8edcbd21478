// Umbrella header for the batch-experiment runner: a worker-pool
// scheduler (pool.hpp), a content-addressed design cache
// (design_cache.hpp), the batch API with deterministic per-job seeding
// (job.hpp, batch.hpp), the per-job event line (job_event.hpp),
// JSON/CSV reporting (report.hpp) and the sweep manifest format behind
// the `hlsprof-run` CLI (manifest.hpp).
//
//   runner::Batch batch;
//   for (int threads : {1, 2, 4, 8, 16}) {
//     runner::JobSpec spec;
//     spec.name = "gemm.t" + std::to_string(threads);
//     spec.kernel = [=](SplitMix64&) { ... return kernel IR ...; };
//     spec.bind = [](core::Session& s, runner::HostBuffers& b, SplitMix64&) {
//       s.sim().bind_f32("A", b.f32(...)); ...
//     };
//     batch.add(std::move(spec));
//   }
//   runner::BatchOptions opts;
//   opts.workers = 8;
//   runner::BatchResult result = batch.run(opts);
//   std::string json = runner::report_json(result);
#pragma once

#include "runner/batch.hpp"
#include "runner/design_cache.hpp"
#include "runner/job.hpp"
#include "runner/job_event.hpp"
#include "runner/manifest.hpp"
#include "runner/pool.hpp"
#include "runner/report.hpp"
