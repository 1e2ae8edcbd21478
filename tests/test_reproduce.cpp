// Pins the reproduction tables: hlsprof-reproduce --quick must print the
// committed golden file byte for byte. After an intended model change,
// regenerate the golden from the repo root with
//   build/tools/hlsprof-reproduce --quick > tests/golden/reproduce_quick.md
// and explain the moved numbers in the change description.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace {

struct Exec {
  int status = -1;
  std::string out;
};

Exec exec(const std::string& cmd) {
  Exec r;
  std::FILE* p = ::popen(cmd.c_str(), "r");
  if (p == nullptr) return r;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, p)) > 0;) {
    r.out.append(buf, n);
  }
  const int raw = ::pclose(p);
  r.status = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  return r;
}

TEST(Reproduce, QuickTablesMatchGolden) {
  const Exec r = exec(std::string(HLSPROF_REPRODUCE_BIN) + " --quick");
  ASSERT_EQ(r.status, 0) << r.out;
  std::ifstream f(HLSPROF_GOLDEN_DIR "/reproduce_quick.md");
  ASSERT_TRUE(f.good()) << "missing golden file";
  std::ostringstream golden;
  golden << f.rdbuf();
  if (r.out == golden.str()) return;

  std::istringstream want(golden.str());
  std::istringstream got(r.out);
  std::string w, g;
  for (int line = 1;; ++line) {
    const bool more_w = bool(std::getline(want, w));
    const bool more_g = bool(std::getline(got, g));
    if (!more_w && !more_g) break;
    if (!more_w || !more_g || w != g) {
      FAIL() << "line " << line << " differs from "
             << "tests/golden/reproduce_quick.md\n  golden: "
             << (more_w ? w : "<end of file>")
             << "\n  actual: " << (more_g ? g : "<end of output>");
    }
  }
  FAIL() << "output differs from the golden file only in its last newline";
}

TEST(Reproduce, UnknownFlagIsUsageError) {
  const Exec r = exec(std::string(HLSPROF_REPRODUCE_BIN) + " --bogus 2>&1");
  EXPECT_EQ(r.status, 2);
  EXPECT_NE(r.out.substr(0, r.out.find('\n')).find("--bogus"),
            std::string::npos)
      << r.out;
}

}  // namespace
