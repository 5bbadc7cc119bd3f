#include "core/cdrm.h"

#include <cmath>

#include "tree/subtree_sums.h"
#include "util/check.h"
#include "util/strings.h"

namespace itree {

namespace {

/// Algorithm 5's two reward functions as concrete callables: the batch
/// sweeps take them by type, so R inlines into the loop.
struct ReciprocalReward {
  double Phi;
  double theta;
  double operator()(double x, double y) const {
    return (Phi - theta / (1.0 + x + y)) * x;
  }
};

struct LogarithmicReward {
  double Phi;
  double theta;
  double operator()(double x, double y) const {
    return Phi * x + theta * std::log((1.0 + y) / (x + y + 1.0));
  }
};

/// The one CDRM kernel: a run of the C(T_u) sweep over ids hi-1 ... lo
/// (subtree_contribution_run) that hands each participant's R(x, y),
/// x = C(u) and y = C(T_u) - C(u), to `sink` as u finishes.
template <typename Reward, typename Sink>
void price_participants(const Tree& tree, const Reward& reward,
                        std::span<double> sums, NodeId lo, NodeId hi,
                        Sink&& sink) {
  const double* contribution = tree.contribution_array().data();
  subtree_contribution_run(tree, sums, lo, hi, [&](NodeId u, double subtree) {
    if (u == kRoot) {
      return;
    }
    const double x = contribution[u];
    // R(x, y) is only constrained for x > 0; a zero contribution earns
    // zero reward (keeps phi-RPC tight and the budget safe).
    sink(u, (x > 0.0) ? reward(x, subtree - x) : 0.0);
  });
}

template <typename Reward>
RewardVector cdrm_rewards(const Tree& tree, const Reward& reward) {
  const auto n = static_cast<NodeId>(tree.node_count());
  RewardVector out(n, 0.0);
  std::vector<double> sums(n);
  price_participants(tree, reward, sums, 0, n,
                     [&](NodeId u, double r) { out[u] = r; });
  return out;
}

/// The pricing hook's form of the same pricing: R(x, y) from each
/// node's own contribution x and subtree total x + y. R is evaluated
/// for every node first and the zero-contribution guard applied in a
/// second pass over the (cache-resident) block: neither loop has a
/// conditional FP operation, so both vectorize where R does.
template <typename Reward>
void cdrm_block(const AggregateView& view, NodeId first,
                std::span<double> out, const Reward& reward) {
  const double* own = view.tree.contribution_array().data() + first;
  const double* subtree = view.subtree.data() + first;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = reward(own[i], subtree[i] - own[i]);
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = (own[i] > 0.0) ? out[i] : 0.0;
  }
}

template <typename Reward>
double cdrm_divergence(const Tree& tree, ServedRewards& served,
                       const Reward& reward) {
  require(served.size() == tree.node_count(),
          "CDRM::max_divergence: one served reward per node id");
  // The C(T_u) sweep, one served block at a time from the top id down.
  const auto n = static_cast<NodeId>(tree.node_count());
  std::vector<double> sums(n);
  double worst = 0.0;
  served.visit_descending([&](const ServedRewards::Block& block) {
    price_participants(tree, reward, sums, block.first,
                       block.first + block.count, [&](NodeId u, double r) {
                         worst = fold_divergence(worst, r, block[u]);
                       });
  });
  return worst;
}

void check_theta(double theta, const BudgetParams& budget) {
  require(theta > 0.0, "CDRM: theta must be > 0");
  require(theta + budget.phi < budget.Phi,
          "CDRM: need theta + phi < Phi (Algorithm 5)");
}

}  // namespace

CdrmMechanism::CdrmMechanism(BudgetParams budget, std::string name,
                             std::string params, CdrmFunction function)
    : Mechanism(budget),
      name_(std::move(name)),
      params_(std::move(params)),
      function_(std::move(function)) {
  require(function_ != nullptr, "CdrmMechanism: function must not be null");
}

RewardVector CdrmMechanism::compute(const Tree& tree) const {
  return cdrm_rewards(tree, function_);
}

double CdrmMechanism::max_divergence(const Tree& tree,
                                     ServedRewards& served) const {
  return cdrm_divergence(tree, served, function_);
}

void CdrmMechanism::rewards_from_aggregates(const AggregateView& view,
                                            NodeId first,
                                            std::span<double> out) const {
  // Guard first: an arbitrary R need not be defined at x = 0.
  const double* own = view.tree.contribution_array().data() + first;
  const double* subtree = view.subtree.data() + first;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double x = own[i];
    out[i] = (x > 0.0) ? function_(x, subtree[i] - x) : 0.0;
  }
}

PropertySet CdrmMechanism::claimed_properties() const {
  // Theorem 5 + Theorem 3: everything except URO, and therefore PO
  // (property (iii) caps R below Phi*x <= x).
  return PropertySet::all().without(Property::kURO).without(Property::kPO);
}

CdrmReciprocal::CdrmReciprocal(BudgetParams budget, double theta)
    : CdrmMechanism(budget, "CDRM-1", "theta=" + compact_number(theta),
                    ReciprocalReward{budget.Phi, theta}),
      theta_(theta) {
  check_theta(theta, budget);
}

RewardVector CdrmReciprocal::compute(const Tree& tree) const {
  return cdrm_rewards(tree, ReciprocalReward{Phi(), theta_});
}

double CdrmReciprocal::max_divergence(const Tree& tree,
                                      ServedRewards& served) const {
  return cdrm_divergence(tree, served, ReciprocalReward{Phi(), theta_});
}

void CdrmReciprocal::rewards_from_aggregates(
    const AggregateView& view, NodeId first, std::span<double> out) const {
  cdrm_block(view, first, out, ReciprocalReward{Phi(), theta_});
}

CdrmLogarithmic::CdrmLogarithmic(BudgetParams budget, double theta)
    : CdrmMechanism(budget, "CDRM-2", "theta=" + compact_number(theta),
                    LogarithmicReward{budget.Phi, theta}),
      theta_(theta) {
  check_theta(theta, budget);
}

RewardVector CdrmLogarithmic::compute(const Tree& tree) const {
  return cdrm_rewards(tree, LogarithmicReward{Phi(), theta_});
}

double CdrmLogarithmic::max_divergence(const Tree& tree,
                                       ServedRewards& served) const {
  return cdrm_divergence(tree, served, LogarithmicReward{Phi(), theta_});
}

void CdrmLogarithmic::rewards_from_aggregates(
    const AggregateView& view, NodeId first, std::span<double> out) const {
  cdrm_block(view, first, out, LogarithmicReward{Phi(), theta_});
}

}  // namespace itree
