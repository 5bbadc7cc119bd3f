#include "core/tdrm.h"

#include "tree/subtree_sums.h"
#include "util/check.h"
#include "util/strings.h"

namespace itree {

PreliminaryTdrm::PreliminaryTdrm(BudgetParams budget, double a, double b)
    : Mechanism(budget), a_(a), b_(b) {
  require(a > 0.0 && a < 1.0, "PreliminaryTDRM: a must be in (0, 1)");
  require(b > 0.0, "PreliminaryTDRM: b must be > 0");
}

std::string PreliminaryTdrm::params_string() const {
  return "a=" + compact_number(a_) + " b=" + compact_number(b_);
}

RewardVector PreliminaryTdrm::compute(const Tree& tree) const {
  const std::vector<double> sums = geometric_subtree_sums(tree, a_);
  const std::span<const double> contribution = tree.contribution_array();
  RewardVector out(tree.node_count(), 0.0);
  for (NodeId u = 1; u < out.size(); ++u) {
    out[u] = contribution[u] * b_ * sums[u];
  }
  return out;
}

void PreliminaryTdrm::rewards_from_aggregates(
    const AggregateView& view, NodeId first, std::span<double> out) const {
  const double* own = view.tree.contribution_array().data() + first;
  const double* subtree = view.subtree.data() + first;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = own[i] * b_ * subtree[i];
  }
}

PropertySet PreliminaryTdrm::claimed_properties() const {
  // "Not a correct reward mechanism" (Alg. 3): the quadratic form loses
  // the budget constraint; phi-RPC also has no floor for small
  // contributions (R(u) -> 0 quadratically as C(u) -> 0).
  return PropertySet::all()
      .without(Property::kBudget)
      .without(Property::kRPC)
      .without(Property::kUGSA);
}

Tdrm::Tdrm(BudgetParams budget, TdrmParams params)
    : Mechanism(budget), params_(params) {
  require(params_.lambda > 0.0 && params_.lambda < Phi() - phi(),
          "TDRM: lambda must be in (0, Phi - phi)");
  require(params_.mu > 0.0, "TDRM: mu must be > 0");
  require(params_.a > 0.0 && params_.a < 1.0, "TDRM: a must be in (0, 1)");
  require(params_.b > 0.0 && params_.a + params_.b < 1.0,
          "TDRM: need b > 0 and a + b < 1");
}

std::string Tdrm::params_string() const {
  return "lambda=" + compact_number(params_.lambda) +
         " mu=" + compact_number(params_.mu) +
         " a=" + compact_number(params_.a) +
         " b=" + compact_number(params_.b);
}

RewardComputationTree Tdrm::build_rct(const Tree& tree) const {
  return RewardComputationTree(tree, params_.mu);
}

RewardVector Tdrm::compute_on_rct(const RewardComputationTree& rct) const {
  const Tree& t = rct.tree();
  const std::vector<double> sums = geometric_subtree_sums(t, params_.a);
  RewardVector rewards(t.node_count(), 0.0);
  const double scale = params_.lambda / params_.mu * params_.b;
  for (NodeId w = 1; w < t.node_count(); ++w) {
    rewards[w] =
        scale * t.contribution(w) * sums[w] + phi() * t.contribution(w);
  }
  return rewards;
}

RewardVector Tdrm::compute_via_rct(const Tree& tree) const {
  const RewardComputationTree rct = build_rct(tree);
  const RewardVector rct_rewards = compute_on_rct(rct);
  RewardVector rewards(tree.node_count(), 0.0);
  for (NodeId w = 1; w < rct.tree().node_count(); ++w) {
    rewards[rct.origin_of(w)] += rct_rewards[w];
  }
  return rewards;
}

RewardVector Tdrm::compute(const Tree& tree) const {
  // Virtual-RCT evaluation. For each referral node u (children first),
  // unroll CH_u bottom-up: the tail's geometric sum seeds from u's own
  // tail weight plus a * S_a(head of CH_v) over u's referral children v
  // — exactly the RCT edge structure — and every level above adds its
  // weight on top of a * (sum below). The per-node arithmetic and the
  // head-to-tail reward accumulation order replicate compute_via_rct
  // operation-for-operation, so the results are bit-identical while
  // touching O(n + total chain length) memory sequentially.
  const std::size_t n = tree.node_count();
  const NodeId* first_child = tree.first_child_array().data();
  const NodeId* next_sibling = tree.next_sibling_array().data();
  const double* contribution = tree.contribution_array().data();
  const double a = params_.a;
  const double mu = params_.mu;
  const double scale = params_.lambda / params_.mu * params_.b;
  const double floor = phi();

  std::vector<double> heads(n, 0.0);  // S_a(head of CH_u) per referral node
  std::vector<double> chain;          // S_a per chain node (0 = head)
  RewardVector out(n, 0.0);

  // parent(u) < u, so a descending sweep finishes every child first.
  for (NodeId u = static_cast<NodeId>(n); u-- > 1;) {
    const double c = contribution[u];
    const std::size_t len = rct_chain_length(c, mu);
    const double head_contribution = c - static_cast<double>(len - 1) * mu;
    if (chain.size() < len) {
      chain.resize(len);
    }

    // Geometric sums bottom-up along the chain. Only the tail sees the
    // children.
    double s = (len == 1) ? head_contribution : mu;
    for (NodeId v = first_child[u]; v != kInvalidNode; v = next_sibling[v]) {
      s += a * heads[v];
    }
    chain[len - 1] = s;
    for (std::size_t i = len - 1; i-- > 0;) {
      const double ci = (i == 0) ? head_contribution : mu;
      s = ci + a * s;
      chain[i] = s;
    }
    heads[u] = s;

    // R(u) = sum over the chain, head first (the RCT id order).
    double r = 0.0;
    for (std::size_t i = 0; i < len; ++i) {
      const double ci = (i == 0) ? head_contribution : mu;
      const double rw = scale * ci * chain[i] + floor * ci;
      r += rw;
    }
    out[u] = r;
  }
  return out;
}

PropertySet Tdrm::claimed_properties() const {
  // Theorem 4: everything except UGSA.
  return PropertySet::all().without(Property::kUGSA);
}

}  // namespace itree
