// Fixed-total-reward Lottery Tree ("lottree") mechanisms.
//
// Douceur & Moscibroda (SIGCOMM'07) reward participants with a *fixed*
// total prize: each mechanism assigns every participant an expected win
// *share* in [0, 1], with shares summing to at most 1. Section 4.2 of the
// Lv–Moscibroda paper transforms any such mechanism A into an Incentive
// Tree mechanism L-A for the linear-budget model by paying
// `Phi * C(T) * share(u)`; that adapter lives in src/core/.
#pragma once

#include <string>
#include <vector>

#include "tree/tree.h"

namespace itree {

class Lottree {
 public:
  virtual ~Lottree() = default;

  virtual std::string name() const = 0;

  /// Expected win share per node id. Shares are non-negative, the
  /// imaginary root's share is 0, and the total is <= 1 (probability mass
  /// not allocated to participants stays with the organizer).
  virtual std::vector<double> shares(const Tree& tree) const = 0;
};

}  // namespace itree
