// Precondition checking for public API entry points.
//
// Mechanism constructors and tree operations validate their arguments and
// throw std::invalid_argument on violation (the paper's parameter
// constraints, e.g. `b <= (1-a)*Phi`, are enforced here so an invalid
// mechanism can never be instantiated).
#pragma once

#include <stdexcept>
#include <string>

namespace itree {

/// Throws std::invalid_argument with `message` when `condition` is false.
inline void require(bool condition, const std::string& message) {
  if (!condition) {
    throw std::invalid_argument(message);
  }
}

/// Literal-message overload: nothing is constructed on the success
/// path, so per-node validation loops (Tree::adopt_columns) stay
/// allocation-free.
inline void require(bool condition, const char* message) {
  if (!condition) [[unlikely]] {
    throw std::invalid_argument(message);
  }
}

/// Throws std::logic_error — used for internal invariants that indicate a
/// bug in this library rather than caller error.
inline void ensure(bool condition, const std::string& message) {
  if (!condition) {
    throw std::logic_error(message);
  }
}

inline void ensure(bool condition, const char* message) {
  if (!condition) [[unlikely]] {
    throw std::logic_error(message);
  }
}

}  // namespace itree
