#pragma once

// Error-handling primitives for the plansep library.
//
// PLANSEP_CHECK is used for preconditions on public APIs and for internal
// invariants whose violation indicates a bug; it throws plansep::CheckError
// so callers (and tests) can observe failures without aborting the process.
// The message names the condition and the source file but no line number:
// job rows copy it, and a row's bytes must not move when code above a
// check does.

#include <stdexcept>
#include <string>

namespace plansep {

/// Thrown when a PLANSEP_CHECK condition fails.
class CheckError : public std::logic_error {
 public:
  explicit CheckError(const std::string& what) : std::logic_error(what) {}
};

namespace detail {
[[noreturn]] void check_failed(const char* cond, const char* file,
                               const std::string& msg);
}  // namespace detail

}  // namespace plansep

#define PLANSEP_CHECK(cond)                                    \
  do {                                                         \
    if (!(cond)) {                                             \
      ::plansep::detail::check_failed(#cond, __FILE__, "");    \
    }                                                          \
  } while (0)

#define PLANSEP_CHECK_MSG(cond, msg)                           \
  do {                                                         \
    if (!(cond)) {                                             \
      ::plansep::detail::check_failed(#cond, __FILE__, (msg)); \
    }                                                          \
  } while (0)
