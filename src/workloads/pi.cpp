#include "workloads/pi.hpp"

#include "common/error.hpp"

namespace hlsprof::workloads {

using ir::KernelBuilder;
using ir::MapDir;
using ir::Type;
using ir::Val;

ir::Kernel pi_series(const PiConfig& cfg) {
  HLSPROF_CHECK(cfg.steps > 0 && cfg.threads > 0, "bad pi config");
  HLSPROF_CHECK(cfg.unroll >= 1 && cfg.unroll <= ir::kMaxLanes,
                "unroll must fit the vector width");
  HLSPROF_CHECK(cfg.steps % cfg.threads == 0,
                "steps must be a multiple of the thread count");
  const int U = cfg.unroll;

  KernelBuilder kb("pi_series", cfg.threads);
  auto out = kb.ptr_arg("out", Type::f32(), MapDir::tofrom, 1);
  Val steps = kb.i32_arg("steps");
  Val inv_steps = kb.f32_arg("inv_steps");

  Val tid = kb.thread_id();
  Val nt = kb.num_threads_val();
  Val spt = steps / nt;                 // steps per thread
  Val start = tid * spt;

  // Loop-invariant vectors: per-lane offsets (j + 0.5) and broadcast step.
  Val lane_half = kb.broadcast(kb.cf32(0.5), U);
  for (int j = 0; j < U; ++j) {
    lane_half = kb.insert(lane_half, kb.cf32(double(j) + 0.5), j);
  }
  Val step_v = kb.broadcast(inv_steps, U);
  Val four_v = kb.broadcast(kb.cf32(4.0), U);
  Val one_v = kb.broadcast(kb.cf32(1.0), U);

  auto sum = kb.var_init("sum", kb.broadcast(kb.cf32(0.0), U));

  // Main loop: U-lane unrolled blocks (Fig. 10's BS_compute).
  Val spt_main = (spt / std::int64_t(U)) * std::int64_t(U);
  kb.for_loop(
      "i", kb.c32(0), spt_main, kb.c32(U),
      [&](Val i) {
        Val base = kb.cast(kb.broadcast(i + start, U), Type::f32(U));
        Val x = (base + lane_half) * step_v;  // (i+start+j+0.5) * 1/steps
        Val denom = one_v + x * x;
        sum.set(sum.get() + four_v / denom);
      },
      ir::LoopOpts{.pipeline = true});

  // Remainder loop for step counts that are not a multiple of the unroll.
  auto rem = kb.var_init("rem", kb.cf32(0.0));
  kb.for_loop(
      "ir", spt_main, spt, kb.c32(1),
      [&](Val i) {
        Val x = (kb.cast(i + start, Type::f32()) + kb.cf32(0.5)) * inv_steps;
        rem.set(rem.get() + kb.cf32(4.0) / (kb.cf32(1.0) + x * x));
      },
      ir::LoopOpts{.pipeline = true});

  // Sum-reduction of the per-thread partial result under a critical
  // section (Fig. 10).
  kb.critical(0, [&] {
    // One lane is already the scalar sum; wider vectors reduce first.
    Val partial = (U == 1 ? sum.get() : kb.reduce_add(sum.get())) + rem.get();
    Val zero = kb.c32(0);
    Val prev = kb.load(out, zero);
    kb.store(out, zero, prev + partial);
  });
  return std::move(kb).finish();
}

double pi_reference(std::int64_t steps) {
  const double inv = 1.0 / double(steps);
  double sum = 0.0;
  for (std::int64_t i = 0; i < steps; ++i) {
    const double x = (double(i) + 0.5) * inv;
    sum += 4.0 / (1.0 + x * x);
  }
  return sum * inv;
}

double pi_peak_gflops(const PiConfig& cfg, int recurrence_ii,
                      int flops_per_lane_iter, double fmax_mhz) {
  HLSPROF_CHECK(recurrence_ii > 0, "recurrence II must be positive");
  const double flops_per_cycle = double(cfg.unroll) *
                                 double(flops_per_lane_iter) /
                                 double(recurrence_ii) * double(cfg.threads);
  return flops_per_cycle * fmax_mhz * 1e6 / 1e9;
}

}  // namespace hlsprof::workloads
