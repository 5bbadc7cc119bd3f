// The L-transform of Section 4.2 and the two derived mechanisms.
//
// Any fixed-total-reward lottree A (shares summing to <= 1) becomes an
// Incentive Tree mechanism L-A by paying R(u) = Phi * C(T) * share(u):
// the total reward is then linear in the total contribution as the model
// requires. Applying it to Luxor and Pachira yields L-Luxor (Theorem 1
// profile, like the Geometric mechanism) and L-Pachira (Theorem 2: all
// properties except SL and UGSA — the dependence on the global C(T)
// breaks Subtree Locality, while pi's convexity preserves USA).
#pragma once

#include <memory>

#include "core/mechanism.h"
#include "lottery/lottree.h"
#include "lottery/luxor.h"
#include "lottery/pachira.h"

namespace itree {

/// Generic adapter: L-A for an arbitrary lottree A.
class LTransformMechanism : public Mechanism {
 public:
  LTransformMechanism(BudgetParams budget, std::unique_ptr<Lottree> lottree,
                      PropertySet claims);

  std::string name() const override;
  std::string params_string() const override;
  RewardVector compute(const Tree& tree) const override;
  PropertySet claimed_properties() const override;

  const Lottree& lottree() const { return *lottree_; }

 private:
  std::unique_ptr<Lottree> lottree_;
  PropertySet claims_;
};

/// L-Luxor with bubble-up fraction delta. Requires
/// Phi * (1 - delta) >= phi so that phi-RPC holds (the effective
/// geometric coefficient is b = Phi*(1-delta)).
class LLuxorMechanism : public Mechanism {
 public:
  LLuxorMechanism(BudgetParams budget, double delta);

  std::string name() const override { return "L-Luxor"; }
  std::string params_string() const override;
  RewardVector compute(const Tree& tree) const override;
  PropertySet claimed_properties() const override;

  /// L-Luxor(delta) == Geometric(a=delta, b=Phi*(1-delta)), so the
  /// serving path is the decay-delta aggregate with that coefficient.
  AggregateSupport aggregate_support() const override;
  void rewards_from_aggregates(const AggregateView& view, NodeId first,
                               std::span<double> out) const override;

  double delta() const { return luxor_.delta(); }

 private:
  Luxor luxor_;
};

/// (beta, delta)-L-Pachira (Algorithm 2). Requires beta >= phi/Phi for
/// phi-RPC (Theorem 2).
class LPachiraMechanism : public Mechanism {
 public:
  LPachiraMechanism(BudgetParams budget, double beta, double delta);

  std::string name() const override { return "L-Pachira"; }
  std::string params_string() const override;
  RewardVector compute(const Tree& tree) const override;
  PropertySet claimed_properties() const override;

  /// share(u) telescopes over C(T_u) and the children's C(T_c), so the
  /// plain (decay = 1) subtree total serves L-Pachira: a point read
  /// costs O(1 + deg u) pi evaluations, a full pass about 2n.
  AggregateSupport aggregate_support() const override {
    return {.supported = true, .decay = 1.0};
  }
  void rewards_from_aggregates(const AggregateView& view, NodeId first,
                               std::span<double> out) const override;

  double beta() const { return pachira_.beta(); }
  double delta() const { return pachira_.delta(); }

 private:
  Pachira pachira_;
};

}  // namespace itree
