// Compile an OpenMP-annotated C source file through the textual frontend
// (the source-level path the paper's Clang-based flow provides), run it on
// the simulated accelerator with profiling, and print the trace summary.
//
//   $ ./omp_source examples/kernels/matmul.c 64 [out_dir]
//
// The kernel must be the matmul signature (A, B, C, DIM); the second
// argument is DIM.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "core/hlsprof.hpp"
#include "frontend/lower.hpp"
#include "hls/report.hpp"
#include "paraver/analysis.hpp"
#include "paraver/ascii.hpp"
#include "paraver/writer.hpp"
#include "workloads/reference.hpp"

using namespace hlsprof;

int main(int argc, char** argv) {
  bool no_color = false;
  int nargs = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--no-color") == 0) no_color = true;
    else argv[nargs++] = argv[i];
  }
  argc = nargs;
  paraver::AsciiOptions ascii = paraver::default_ascii_options(stdout);
  if (no_color) ascii.color = false;
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: %s <kernel.c> <dim> [out_dir] [--no-color]\n",
                 argv[0]);
    return 2;
  }
  const std::string path = argv[1];
  const int dim = std::atoi(argv[2]);
  const std::string out_dir = argc > 3 ? argv[3] : ".";

  std::ifstream f(path);
  if (!f.good()) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::ostringstream ss;
  ss << f.rdbuf();

  frontend::LowerOptions opts;
  opts.constants["DIM"] = dim;
  ir::Kernel kernel;
  try {
    kernel = frontend::compile_source(ss.str(), opts);
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  std::printf("frontend: parsed kernel '%s' (%d threads, %zu IR ops)\n",
              kernel.name.c_str(), kernel.num_threads, kernel.ops.size());

  hls::Design design = core::compile(std::move(kernel));
  std::printf("%s", hls::report(design).c_str());

  core::Session session(std::move(design));
  auto a = workloads::random_matrix(dim, 31);
  auto b = workloads::random_matrix(dim, 32);
  std::vector<float> c(std::size_t(dim) * std::size_t(dim), 0.0f);
  session.sim().bind_f32("A", a);
  session.sim().bind_f32("B", b);
  session.sim().bind_f32("C", c);
  session.sim().set_arg("DIM", std::int64_t(dim));
  core::RunResult r = session.run();

  const double err = workloads::max_rel_error(
      c, workloads::gemm_reference(a, b, dim));
  const auto st = paraver::summarize_states(r.timeline);
  std::printf("sim: %llu kernel cycles, max rel err %.2e\n",
              (unsigned long long)r.sim.kernel_cycles, err);
  std::printf("states: running %.2f%% critical %.2f%% spinning %.2f%%\n",
              100 * st.running, 100 * st.critical, 100 * st.spinning);
  std::printf("%s", paraver::render_state_view(r.timeline, ascii).c_str());
  paraver::write_paraver(r.timeline, "matmul", out_dir + "/omp_source");
  std::printf("wrote %s/omp_source.{prv,pcf,row}\n", out_dir.c_str());
  return err < 1e-2 ? 0 : 1;
}
