#include "core/split_proof.h"

#include <cmath>

#include "tree/subtree_sums.h"
#include "util/check.h"
#include "util/strings.h"

namespace itree {

SplitProofMechanism::SplitProofMechanism(BudgetParams budget, double b,
                                         double lambda)
    : Mechanism(budget), b_(b), lambda_(lambda) {
  require(b > 0.0 && b >= phi(),
          "SplitProof: b must be positive and >= phi (CCI and phi-RPC)");
  require(lambda > 0.0, "SplitProof: lambda must be > 0");
  require(b + lambda <= Phi(),
          "SplitProof: b + lambda must be <= Phi (budget constraint)");
}

std::string SplitProofMechanism::params_string() const {
  return "b=" + compact_number(b_) + " lambda=" + compact_number(lambda_);
}

RewardVector SplitProofMechanism::compute(const Tree& tree) const {
  const std::vector<std::uint32_t> depths = binary_subtree_depths(tree);
  const std::span<const double> contribution = tree.contribution_array();
  RewardVector out(tree.node_count(), 0.0);
  for (NodeId u = 1; u < out.size(); ++u) {
    const double depth_bonus =
        1.0 - std::exp2(1.0 - static_cast<double>(depths[u]));
    out[u] = contribution[u] * (b_ + lambda_ * depth_bonus);
  }
  return out;
}

void SplitProofMechanism::rewards_from_aggregates(
    const AggregateView& view, NodeId first, std::span<double> out) const {
  // Identical expression to compute(), so the serving path is
  // bit-for-bit the batch reward (BD is an integer, maintained exactly).
  const double* own = view.tree.contribution_array().data() + first;
  const std::uint32_t* depth = view.binary_depth.data() + first;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double depth_bonus =
        1.0 - std::exp2(1.0 - static_cast<double>(depth[i]));
    out[i] = own[i] * (b_ + lambda_ * depth_bonus);
  }
}

PropertySet SplitProofMechanism::claimed_properties() const {
  // Sec. 4.3: fails CSI. In our arbitrary-contribution port the
  // budget-safe payout also gives up PO/URO (see header), and — as the
  // paper's broader point that single-item mechanisms do not transfer
  // predicts — USA/UGSA fall too: with arbitrary contributions an
  // attacker can assemble a binary subtree out of its own cheap Sybil
  // identities and harvest the depth bonus (see EXPERIMENTS.md, E4).
  return PropertySet::all()
      .without(Property::kCSI)
      .without(Property::kPO)
      .without(Property::kURO)
      .without(Property::kUSA)
      .without(Property::kUGSA);
}

}  // namespace itree
