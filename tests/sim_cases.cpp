#include "sim_cases.hpp"

#include "common/error.hpp"
#include "common/rng.hpp"
#include "random_kernel.hpp"
#include "workloads/gemm.hpp"
#include "workloads/pi.hpp"
#include "workloads/reference.hpp"
#include "workloads/simple.hpp"

namespace hlsprof {

sim::SimParams quick_params() {
  sim::SimParams p;
  p.host.thread_start_interval = 1000;
  return p;
}

namespace {

SimCase gemm_cfg_case(std::string name, const workloads::GemmConfig& cfg,
                      std::function<ir::Kernel()> kernel) {
  const std::int64_t nn = std::int64_t(cfg.dim) * cfg.dim;
  const int dim = cfg.dim;
  return {std::move(name), std::move(kernel),
          [=](sim::Simulator& s, HostBufs& h) {
            s.bind_f32("A", h.in(workloads::random_matrix(dim, 71)));
            s.bind_f32("B", h.in(workloads::random_matrix(dim, 72)));
            s.bind_f32("C", h.out(std::vector<float>(std::size_t(nn), 0.0f)));
          },
          quick_params()};
}

}  // namespace

std::vector<SimCase> example_cases() {
  std::vector<SimCase> c;
  c.push_back({"vecadd", [] { return workloads::vecadd(512, 4, 1); },
               [](sim::Simulator& s, HostBufs& h) {
                 s.bind_f32("x", h.in(workloads::random_vector(512, 11)));
                 s.bind_f32("y", h.in(workloads::random_vector(512, 12)));
                 s.bind_f32("z", h.out(std::vector<float>(512)));
               },
               quick_params()});
  c.push_back({"vecadd_v4", [] { return workloads::vecadd(512, 2, 4); },
               [](sim::Simulator& s, HostBufs& h) {
                 s.bind_f32("x", h.in(workloads::random_vector(512, 21)));
                 s.bind_f32("y", h.in(workloads::random_vector(512, 22)));
                 s.bind_f32("z", h.out(std::vector<float>(512)));
               },
               quick_params()});
  c.push_back({"dot_critical", [] { return workloads::dot(768, 4); },
               [](sim::Simulator& s, HostBufs& h) {
                 s.bind_f32("x", h.in(workloads::random_vector(768, 31)));
                 s.bind_f32("y", h.in(workloads::random_vector(768, 32)));
                 s.bind_f32("out", h.out(std::vector<float>(1, 0.0f)));
               },
               quick_params()});
  c.push_back({"stencil", [] { return workloads::stencil3(600, 3); },
               [](sim::Simulator& s, HostBufs& h) {
                 s.bind_f32("x", h.in(workloads::random_vector(600, 41)));
                 s.bind_f32("y", h.out(std::vector<float>(600)));
               },
               quick_params()});
  c.push_back({"barrier_phases",
               [] { return workloads::barrier_phases(256, 4); },
               [](sim::Simulator& s, HostBufs& h) {
                 s.bind_f32("x", h.in(workloads::random_vector(256, 51)));
                 s.bind_f32("z", h.out(std::vector<float>(256)));
                 s.bind_f32("w", h.out(std::vector<float>(256)));
               },
               quick_params()});
  c.push_back({"jacobi2d", [] { return workloads::jacobi2d(16, 4, 4); },
               [](sim::Simulator& s, HostBufs& h) {
                 s.bind_f32("u", h.out(workloads::random_vector(16 * 16, 61,
                                                                0.f, 1.f)));
               },
               quick_params()});
  workloads::PiConfig pi;
  pi.steps = 4096;
  pi.threads = 8;
  pi.unroll = 4;
  c.push_back({"pi", [=] { return workloads::pi_series(pi); },
               [=](sim::Simulator& s, HostBufs& h) {
                 s.set_arg("steps", std::int64_t(pi.steps));
                 s.set_arg("inv_steps", 1.0 / double(pi.steps));
                 s.bind_f32("out", h.out(std::vector<float>(1, 0.0f)));
               },
               quick_params()});
  workloads::GemmConfig cfg;
  cfg.dim = 16;
  cfg.threads = 4;
  cfg.block = 8;
  const std::size_t versions = workloads::gemm_versions().size();
  for (std::size_t v = 0; v <= versions; ++v) {
    c.push_back(gemm_cfg_case("gemm_v" + std::to_string(v), cfg, [=] {
      return v < versions ? workloads::gemm_versions()[v].build(cfg)
                          : workloads::gemm_preloaded(cfg);
    }));
  }
  return c;
}

SimCase example_case(const std::string& name) {
  for (SimCase& c : example_cases()) {
    if (c.name == name) return std::move(c);
  }
  fail("no simulator example case named '" + name + "'");
}

SimCase random_case(std::uint64_t seed) {
  const ir::Kernel probe = random_kernel(seed);
  const std::int64_t n = probe.args[0].count;  // "x"
  const std::int64_t locks = probe.args[2].count;
  return {"random_" + std::to_string(seed),
          [=] { return random_kernel(seed); },
          [=](sim::Simulator& s, HostBufs& h) {
            s.bind_f32("x", h.in(workloads::random_vector(n, seed * 2 + 1)));
            s.bind_f32("y", h.out(workloads::random_vector(n, seed * 2 + 2)));
            s.bind_f32("acc",
                       h.out(std::vector<float>(std::size_t(locks), 0.0f)));
          },
          quick_params()};
}

SimCase random_params_case(std::uint64_t seed) {
  SplitMix64 rng(seed * 977);
  sim::SimParams p = quick_params();
  p.dram.base_latency = 4 + cycle_t(rng.next_below(64));
  p.dram.row_miss_penalty = cycle_t(rng.next_below(48));
  p.dram.num_banks = 1 << rng.next_below(4);  // 1..8
  p.host.thread_start_interval = 1 + cycle_t(rng.next_below(3000));
  const int threads = 1 << (1 + rng.next_below(3));  // 2, 4 or 8 (n | threads)
  return {"dot_timing_" + std::to_string(seed),
          [=] { return workloads::dot(512, threads); },
          [](sim::Simulator& s, HostBufs& h) {
            s.bind_f32("x", h.in(workloads::random_vector(512, 101)));
            s.bind_f32("y", h.in(workloads::random_vector(512, 102)));
            s.bind_f32("out", h.out(std::vector<float>(1, 0.0f)));
          },
          p};
}

SimCase gemm_case(std::size_t version, int dim, int threads) {
  workloads::GemmConfig cfg;
  cfg.dim = dim;
  cfg.threads = threads;
  const workloads::GemmVersion& v = workloads::gemm_versions().at(version);
  return gemm_cfg_case("gemm" + std::to_string(version) + "_d" +
                           std::to_string(dim) + "_t" +
                           std::to_string(threads),
                       cfg, [=] { return v.build(cfg); });
}

}  // namespace hlsprof
