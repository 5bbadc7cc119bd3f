// Budget-normalized preliminary TDRM — the road NOT taken in Sec. 5,
// implemented so its failure is measurable.
//
// The paper: "The fundamental problem with this approach is that in
// order to stay within budget, we would need to scale down the rewards
// R(u) ... the amount by which we would need to scale would depend on a
// global property of the referral tree, for example C(T). Thus, such a
// scaling would fundamentally violate the SL property."
//
// NormalizedPreliminaryTdrm applies exactly that fix: it computes the
// Algorithm 3 quadratic rewards, then — whenever their total exceeds the
// budget — rescales everything by Phi*C(T)/total. Benches and tests
// measure what the paper predicts: the budget is restored, but SL (and
// with it USB and the USA soundness the quadratic form had) is lost.
#pragma once

#include "core/mechanism.h"
#include "core/tdrm.h"

namespace itree {

class NormalizedPreliminaryTdrm : public Mechanism {
 public:
  NormalizedPreliminaryTdrm(BudgetParams budget, double a, double b);

  std::string name() const override { return "NormPreliminaryTDRM"; }
  std::string params_string() const override;
  RewardVector compute(const Tree& tree) const override;
  PropertySet claimed_properties() const override;

  /// The scaling factor applied for this tree (1 when within budget).
  double scale_for(const Tree& tree) const;

  /// raw(u) = C(u) * b * S_a(u) is PreliminaryTDRM's, and the raw total
  /// b * sum_u C(u) * S_a(u) is the engine's own-weighted running total,
  /// so the aggregate engine serves the rescaled rewards too.
  AggregateSupport aggregate_support() const override {
    return {.supported = true,
            .decay = raw_.a(),
            .own_weighted_total = true};
  }
  void rewards_from_aggregates(const AggregateView& view, NodeId first,
                               std::span<double> out) const override;

 private:
  PreliminaryTdrm raw_;
};

}  // namespace itree
