// Helpers for the tests that drive the tool binaries end to end.
#pragma once

#include <filesystem>
#include <string>

namespace hlsprof {

/// Stdout of a shell command; fails the calling test unless it exits 0.
std::string command_stdout(const std::string& cmd);

/// Contents of a whole file ("" if it cannot be read).
std::string slurp(const std::filesystem::path& path);

}  // namespace hlsprof
