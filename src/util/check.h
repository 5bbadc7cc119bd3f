// Precondition checking for public API entry points.
//
// Mechanism constructors and tree operations validate their arguments and
// throw std::invalid_argument on violation (the paper's parameter
// constraints, e.g. `b <= (1-a)*Phi`, are enforced here so an invalid
// mechanism can never be instantiated).
//
// Only literal messages are accepted. A `const std::string&` overload
// would let a call site format its message (`"..." + std::to_string(x)`)
// before the check runs, paying a heap allocation on every *passing*
// call; on a per-ancestor-step check that cost several times the walk
// it guarded. A message that needs formatting belongs on the throwing
// branch: `if (!cond) throw std::invalid_argument(...)`.
#pragma once

#include <stdexcept>

namespace itree {

/// Throws std::invalid_argument with `message` when `condition` is
/// false. Nothing is constructed on the success path.
inline void require(bool condition, const char* message) {
  if (!condition) [[unlikely]] {
    throw std::invalid_argument(message);
  }
}

/// Throws std::logic_error — used for internal invariants that indicate a
/// bug in this library rather than caller error.
inline void ensure(bool condition, const char* message) {
  if (!condition) [[unlikely]] {
    throw std::logic_error(message);
  }
}

}  // namespace itree
