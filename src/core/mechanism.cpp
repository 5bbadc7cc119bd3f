#include "core/mechanism.h"

#include <stdexcept>

#include "util/check.h"

namespace itree {

void BudgetParams::validate() const {
  require(Phi > 0.0 && Phi <= 1.0, "BudgetParams: Phi must be in (0, 1]");
  require(phi >= 0.0 && phi <= Phi, "BudgetParams: phi must be in [0, Phi]");
}

Mechanism::Mechanism(BudgetParams budget) : budget_(budget) {
  budget_.validate();
}

double Mechanism::reward_from_aggregates(const NodeAggregates&) const {
  throw std::logic_error("Mechanism::reward_from_aggregates: " + name() +
                         " declares no aggregate support");
}

double Mechanism::max_divergence(const Tree& tree,
                                 std::span<const double> served) const {
  require(served.size() == tree.node_count(),
          "Mechanism::max_divergence: one served reward per node id");
  const RewardVector batch = compute(tree);
  double worst = 0.0;
  for (NodeId u = 1; u < batch.size(); ++u) {
    worst = fold_divergence(worst, batch[u], served[u]);
  }
  return worst;
}

double Mechanism::reward_of(const Tree& tree, NodeId u) const {
  const RewardVector rewards = compute(tree);
  require(u < rewards.size(), "Mechanism::reward_of: node out of range");
  return rewards[u];
}

double total_reward(const RewardVector& rewards) {
  double total = 0.0;
  for (double r : rewards) {
    total += r;
  }
  return total;
}

double profit(const Tree& tree, const RewardVector& rewards, NodeId u) {
  require(u < rewards.size() && tree.contains(u), "profit: bad node id");
  return rewards[u] - tree.contribution(u);
}

double payment(const Tree& tree, const RewardVector& rewards, NodeId u) {
  return -profit(tree, rewards, u);
}

}  // namespace itree
