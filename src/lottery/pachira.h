// Pachira lottree (Douceur & Moscibroda, SIGCOMM'07), as restated in
// Algorithm 2 of Lv & Moscibroda.
//
// With pi(x) = beta*x + (1-beta)*x^{1+delta} (strictly convex for
// beta < 1), a participant u with children q_1..q_k receives share
//   share(u) = pi(C(T_u)/C(T)) - sum_i pi(C(T_{q_i})/C(T)).
// Convexity of pi is what buys Sybil resistance (USA): splitting a
// subtree's mass across identities can only shrink the telescoped share
// (Jensen). The shares telescope to sum_{forest roots} pi(f) <= 1.
#pragma once

#include "lottery/lottree.h"

namespace itree {

class Pachira : public Lottree {
 public:
  /// `beta` in [0, 1] blends the linear (fair) part against the convex
  /// (Sybil-resistant) part; `delta > 0` sets the convexity exponent.
  Pachira(double beta, double delta);

  std::string name() const override { return "Pachira"; }
  std::vector<double> shares(const Tree& tree) const override;

  double beta() const { return beta_; }
  double delta() const { return delta_; }

  /// pi(x) = beta*x + (1-beta)*x^{1+delta}.
  double pi(double x) const;

 private:
  double beta_;
  double delta_;
};

}  // namespace itree
