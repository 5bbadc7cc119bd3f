#include "core/l_transform.h"

#include <algorithm>

#include "util/check.h"
#include "util/strings.h"

namespace itree {

namespace {

RewardVector scaled_shares(const Lottree& lottree, const Tree& tree,
                           double Phi) {
  RewardVector out = lottree.shares(tree);
  const double scale = Phi * tree.total_contribution();
  for (double& r : out) {
    r *= scale;
  }
  out[kRoot] = 0.0;
  return out;
}

}  // namespace

LTransformMechanism::LTransformMechanism(BudgetParams budget,
                                         std::unique_ptr<Lottree> lottree,
                                         PropertySet claims)
    : Mechanism(budget), lottree_(std::move(lottree)), claims_(claims) {
  require(lottree_ != nullptr, "LTransformMechanism: lottree must not be null");
}

std::string LTransformMechanism::name() const {
  return "L-" + lottree_->name();
}

std::string LTransformMechanism::params_string() const { return ""; }

RewardVector LTransformMechanism::compute(const Tree& tree) const {
  return scaled_shares(*lottree_, tree, Phi());
}

PropertySet LTransformMechanism::claimed_properties() const { return claims_; }

LLuxorMechanism::LLuxorMechanism(BudgetParams budget, double delta)
    : Mechanism(budget), luxor_(delta) {
  require(Phi() * (1.0 - delta) >= phi(),
          "L-Luxor: need Phi*(1-delta) >= phi for phi-RPC");
}

std::string LLuxorMechanism::params_string() const {
  return "delta=" + compact_number(luxor_.delta());
}

RewardVector LLuxorMechanism::compute(const Tree& tree) const {
  return scaled_shares(luxor_, tree, Phi());
}

AggregateSupport LLuxorMechanism::aggregate_support() const {
  return {.supported = true,
          .decay = luxor_.delta(),
          .total_coefficient = Phi() * (1.0 - luxor_.delta())};
}

void LLuxorMechanism::rewards_from_aggregates(
    const AggregateView& view, NodeId first, std::span<double> out) const {
  // The effective geometric coefficient b = Phi*(1-delta); the subtree
  // aggregate is S_delta(u).
  const double b = Phi() * (1.0 - luxor_.delta());
  const double* subtree = view.subtree.data() + first;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = b * subtree[i];
  }
}

PropertySet LLuxorMechanism::claimed_properties() const {
  // Sec. 4.2: "L-Luxor is very similar to the (a,b)-Geometric Mechanism,
  // and achieves the same properties" — i.e. the Theorem 1 profile.
  return PropertySet::all().without(Property::kUSA).without(Property::kUGSA);
}

LPachiraMechanism::LPachiraMechanism(BudgetParams budget, double beta,
                                     double delta)
    : Mechanism(budget), pachira_(beta, delta) {
  require(beta >= phi() / Phi(),
          "L-Pachira: need beta >= phi/Phi for phi-RPC (Theorem 2)");
}

std::string LPachiraMechanism::params_string() const {
  return "beta=" + compact_number(pachira_.beta()) +
         " delta=" + compact_number(pachira_.delta());
}

RewardVector LPachiraMechanism::compute(const Tree& tree) const {
  return scaled_shares(pachira_, tree, Phi());
}

void LPachiraMechanism::rewards_from_aggregates(
    const AggregateView& view, NodeId first, std::span<double> out) const {
  // Pachira::shares() followed by scaled_shares(), on the served C(T_u):
  // Phi*C(T) * (pi(S_u/C(T)) - sum over children c of pi(S_c/C(T))).
  const double total = view.tree.total_contribution();
  if (total <= 0.0) {
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  const double scale = Phi() * total;
  const double* subtree = view.subtree.data();
  const NodeId* first_child = view.tree.first_child_array().data();
  const NodeId* next_sibling = view.tree.next_sibling_array().data();
  for (std::size_t i = 0; i < out.size(); ++i) {
    const NodeId u = static_cast<NodeId>(first + i);
    double share = pachira_.pi(subtree[u] / total);
    for (NodeId child = first_child[u]; child != kInvalidNode;
         child = next_sibling[child]) {
      share -= pachira_.pi(subtree[child] / total);
    }
    out[i] = share * scale;
  }
}

PropertySet LPachiraMechanism::claimed_properties() const {
  // Theorem 2: everything except SL and UGSA. USB still holds: the
  // joiner's own reward depends only on its subtree fraction, so the
  // join position does not matter to the joiner.
  return PropertySet::all().without(Property::kSL).without(Property::kUGSA);
}

}  // namespace itree
