#include "cli_helpers.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>

namespace hlsprof {

std::string command_stdout(const std::string& cmd) {
  std::FILE* p = ::popen(cmd.c_str(), "r");
  EXPECT_NE(p, nullptr) << cmd;
  if (p == nullptr) return std::string();
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), p)) > 0) out.append(buf, n);
  EXPECT_EQ(::pclose(p), 0) << cmd;
  return out;
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

}  // namespace hlsprof
