#include "core/mechanism.h"

#include <algorithm>
#include <stdexcept>

#include "util/check.h"

namespace itree {

ServedRewards::ServedRewards(std::size_t size, Fill fill)
    : size_(size), fill_(std::move(fill)) {
  block_.resize(std::min(size_, kStreamBlock));
}

ServedRewards::Block ServedRewards::load(NodeId first, NodeId count) {
  require(count <= kStreamBlock && first <= size_ && count <= size_ - first,
          "ServedRewards: block out of range");
  fill_(first, std::span<double>(block_.data(), count));
  return Block{block_.data(), first, count};
}

void BudgetParams::validate() const {
  require(Phi > 0.0 && Phi <= 1.0, "BudgetParams: Phi must be in (0, 1]");
  require(phi >= 0.0 && phi <= Phi, "BudgetParams: phi must be in [0, Phi]");
}

Mechanism::Mechanism(BudgetParams budget) : budget_(budget) {
  budget_.validate();
}

void Mechanism::rewards_from_aggregates(const AggregateView&, NodeId,
                                        std::span<double>) const {
  throw std::logic_error("Mechanism::rewards_from_aggregates: " + name() +
                         " declares no aggregate support");
}

double Mechanism::max_divergence(const Tree& tree,
                                 ServedRewards& served) const {
  require(served.size() == tree.node_count(),
          "Mechanism::max_divergence: one served reward per node id");
  const RewardVector batch = compute(tree);
  const auto n = static_cast<NodeId>(batch.size());
  double worst = 0.0;
  for (NodeId first = 0; first < n; first += kStreamBlock) {
    const ServedRewards::Block block =
        served.load(first, std::min<NodeId>(kStreamBlock, n - first));
    for (NodeId u = std::max<NodeId>(first, 1); u < first + block.count;
         ++u) {
      worst = fold_divergence(worst, batch[u], block[u]);
    }
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
