// Error handling: a single exception type plus check macros used for
// precondition/invariant enforcement throughout the library.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace hlsprof {

/// Exception thrown on violated preconditions, malformed IR, or invalid
/// configuration. API functions document which conditions raise it.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

[[noreturn]] inline void fail(const std::string& message) {
  throw Error(message);
}

/// HLSPROF_CHECK's failure path, kept out of line so a passing check
/// costs its caller one compare and branch.
[[noreturn, gnu::cold, gnu::noinline]] inline void check_failed(
    const char* cond, std::string_view msg, const char* file, int line) {
  fail(std::string("check failed: ") + cond + " — " + std::string(msg) +
       " (" + file + ":" + std::to_string(line) + ")");
}

}  // namespace hlsprof

/// Precondition / invariant check. Active in all build types: the toolchain
/// is a compiler+simulator, so silent corruption is worse than the branch.
#define HLSPROF_CHECK(cond, msg)                                   \
  do {                                                             \
    if (!(cond)) [[unlikely]] {                                    \
      ::hlsprof::check_failed(#cond, (msg), __FILE__, __LINE__);   \
    }                                                              \
  } while (false)
