#include "core/normalized.h"

namespace itree {

NormalizedPreliminaryTdrm::NormalizedPreliminaryTdrm(BudgetParams budget,
                                                     double a, double b)
    : Mechanism(budget), raw_(budget, a, b) {}

std::string NormalizedPreliminaryTdrm::params_string() const {
  return raw_.params_string();
}

double NormalizedPreliminaryTdrm::scale_for(const Tree& tree) const {
  const double total = total_reward(raw_.compute(tree));
  const double cap = Phi() * tree.total_contribution();
  if (total <= cap || total <= 0.0) {
    return 1.0;
  }
  return cap / total;
}

RewardVector NormalizedPreliminaryTdrm::compute(const Tree& tree) const {
  RewardVector out = raw_.compute(tree);
  const double total = total_reward(out);
  const double cap = Phi() * tree.total_contribution();
  if (total > cap && total > 0.0) {
    const double scale = cap / total;
    for (double& r : out) {
      r *= scale;
    }
  }
  return out;
}

void NormalizedPreliminaryTdrm::rewards_from_aggregates(
    const AggregateView& view, NodeId first, std::span<double> out) const {
  raw_.rewards_from_aggregates(view, first, out);
  // compute()'s rule, with the raw total read from the engine instead
  // of summed over the vector.
  const double total = raw_.b() * view.total;
  const double cap = Phi() * view.tree.total_contribution();
  if (total > cap && total > 0.0) {
    const double scale = cap / total;
    for (double& r : out) {
      r *= scale;
    }
  }
}

PropertySet NormalizedPreliminaryTdrm::claimed_properties() const {
  // What survives the global rescaling (measured; see
  // normalized_test.cpp): the budget is restored, CCI/PO/URO remain, and
  // — perhaps surprisingly — so does USA (the quadratic structure still
  // dominates the scale shifts in every searched scenario). But the
  // C(T)-dependent scale breaks MORE than the SL property the paper
  // calls out: CSI falls (a large recruit can shrink the scale faster
  // than it grows the solicitor's raw reward), USB falls (the join
  // position changes ancestors' raw rewards and hence the global
  // scale), and phi-RPC has no floor once scaled. The RCT approach of
  // Algorithm 4 avoids all of this.
  return PropertySet{Property::kBudget, Property::kCCI, Property::kPO,
                     Property::kURO, Property::kUSA};
}

}  // namespace itree
