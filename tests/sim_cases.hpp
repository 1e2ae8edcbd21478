// Simulator workloads shared by the fast-path differential suite
// (test_sim_fastpath.cpp) and the simulator oracle (test_sim_oracle.cpp):
// each case is a kernel, the host buffers it binds and the simulator
// parameters it runs under.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "ir/kernel.hpp"
#include "sim/params.hpp"
#include "sim/simulator.hpp"

namespace hlsprof {

/// Host buffers for one run. The bound spans point into these vectors, so
/// they must outlive Simulator::run(); buffers registered through `out()`
/// are the ones whose post-run contents the suites compare.
class HostBufs {
 public:
  std::vector<float>& in(std::vector<float> v) {
    bufs_.push_back(std::move(v));
    return bufs_.back();
  }
  std::vector<float>& out(std::vector<float> v) {
    bufs_.push_back(std::move(v));
    out_idx_.push_back(bufs_.size() - 1);
    return bufs_.back();
  }
  std::vector<std::vector<float>> outputs() const {
    std::vector<std::vector<float>> o;
    for (std::size_t i : out_idx_) o.push_back(bufs_[i]);
    return o;
  }

 private:
  std::deque<std::vector<float>> bufs_;  // stable addresses across pushes
  std::vector<std::size_t> out_idx_;
};

using Binder = std::function<void(sim::Simulator&, HostBufs&)>;

struct SimCase {
  std::string name;
  std::function<ir::Kernel()> kernel;
  Binder bind;
  sim::SimParams params;
};

/// Default parameters of the suites: a short thread-start interval keeps
/// tiny workloads fast.
sim::SimParams quick_params();

/// The example workloads of the differential suite, by name: vecadd,
/// vecadd_v4, dot_critical, stencil, barrier_phases, jacobi2d, pi, and
/// gemm_v0 .. gemm_v5 (the five GEMM versions at dim 16 with 4 threads,
/// then the preloader-DMA variant).
SimCase example_case(const std::string& name);
std::vector<SimCase> example_cases();

/// `random_kernel(seed)` with seed-derived inputs.
SimCase random_case(std::uint64_t seed);

/// The contended dot product under seed-drawn DRAM and host timing.
SimCase random_params_case(std::uint64_t seed);

/// GEMM version `version` (index into gemm_versions()) at `dim`.
SimCase gemm_case(std::size_t version, int dim, int threads);

}  // namespace hlsprof
