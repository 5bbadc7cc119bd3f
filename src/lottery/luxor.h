// Luxor lottree (Douceur & Moscibroda, SIGCOMM'07).
//
// Luxor "bubbles up" ticket mass geometrically: a node's expected win
// share is
//   share(u) = (1 - delta)/C(T) * sum_{v in T_u} delta^{dep_u(v)} C(v).
// Lv & Moscibroda (Sec. 4.2) note that the linear transform L-Luxor "is
// very similar to the (a,b)-Geometric Mechanism, and achieves the same
// properties"; this normalized-geometric form is exactly that structure.
#pragma once

#include "lottery/lottree.h"

namespace itree {

class Luxor : public Lottree {
 public:
  /// `delta` in (0, 1): fraction of a node's ticket mass bubbling up one
  /// level per generation.
  explicit Luxor(double delta);

  std::string name() const override { return "Luxor"; }
  std::vector<double> shares(const Tree& tree) const override;

  double delta() const { return delta_; }

 private:
  double delta_;
};

}  // namespace itree
