// (a,b)-Geometric Mechanism (paper Algorithm 1).
//
//   R(u) = sum_{v in T_u} a^{dep_u(v)} * b * C(v)
//
// A fraction a of each contribution "bubbles up" per level. Parameter
// constraints (Sec. 4.1): 0 < a < 1 and phi <= b <= (1-a)*Phi; the upper
// bound keeps the total responsibility per contribution, b/(1-a), within
// Phi. Theorem 1: all desirable properties hold except USA and UGSA — a
// participant gains by splitting into a chain of Sybil identities and
// collecting its own bubbled-up reward.
#pragma once

#include "core/mechanism.h"

namespace itree {

class GeometricMechanism : public Mechanism {
 public:
  GeometricMechanism(BudgetParams budget, double a, double b);

  std::string name() const override { return "Geometric"; }
  std::string params_string() const override;
  RewardVector compute(const Tree& tree) const override;
  /// Folds b * S_a(u) into the maximum inside the S_a sweep.
  double max_divergence(const Tree& tree,
                        ServedRewards& served) const override;
  PropertySet claimed_properties() const override;

  /// R(u) = b * S_a(u): served from the decay-a subtree aggregate, with
  /// an O(1) total (R(T) = b * sum of aggregates).
  AggregateSupport aggregate_support() const override {
    return {.supported = true, .decay = a_, .total_coefficient = b_};
  }
  void rewards_from_aggregates(const AggregateView& view, NodeId first,
                               std::span<double> out) const override;

  double a() const { return a_; }
  double b() const { return b_; }

 private:
  double a_;
  double b_;
};

}  // namespace itree
