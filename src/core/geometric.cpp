#include "core/geometric.h"

#include "tree/subtree_sums.h"
#include "util/check.h"
#include "util/strings.h"

namespace itree {

GeometricMechanism::GeometricMechanism(BudgetParams budget, double a, double b)
    : Mechanism(budget), a_(a), b_(b) {
  require(a > 0.0 && a < 1.0, "Geometric: a must be in (0, 1)");
  require(b >= phi(), "Geometric: b must be >= phi (phi-RPC)");
  require(b <= (1.0 - a) * Phi(),
          "Geometric: b must be <= (1-a)*Phi (budget constraint)");
}

std::string GeometricMechanism::params_string() const {
  return "a=" + compact_number(a_) + " b=" + compact_number(b_);
}

RewardVector GeometricMechanism::compute(const Tree& tree) const {
  RewardVector out = geometric_subtree_sums(tree, a_);
  for (NodeId u = 1; u < out.size(); ++u) {
    out[u] *= b_;
  }
  out[kRoot] = 0.0;
  return out;
}

void GeometricMechanism::rewards_from_aggregates(
    const AggregateView& view, NodeId first, std::span<double> out) const {
  const double* subtree = view.subtree.data() + first;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = b_ * subtree[i];
  }
}

double GeometricMechanism::max_divergence(const Tree& tree,
                                          ServedRewards& served) const {
  require(served.size() == tree.node_count(),
          "Geometric::max_divergence: one served reward per node id");
  // The S_a sweep, one served block at a time from the top id down.
  const auto n = static_cast<NodeId>(tree.node_count());
  std::vector<double> sums(n);
  double worst = 0.0;
  served.visit_descending([&](const ServedRewards::Block& block) {
    geometric_sum_run(tree, a_, sums, block.first, block.first + block.count,
                      [&](NodeId u, double s) {
                        if (u != kRoot) {
                          worst = fold_divergence(worst, s * b_, block[u]);
                        }
                      });
  });
  return worst;
}

PropertySet GeometricMechanism::claimed_properties() const {
  // Theorem 1: everything except USA and UGSA.
  return PropertySet::all().without(Property::kUSA).without(Property::kUGSA);
}

}  // namespace itree
