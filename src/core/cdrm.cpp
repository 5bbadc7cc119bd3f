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

/// The one CDRM kernel: a C(T_u) sweep that hands each participant's
/// R(x, y), x = C(u) and y = C(T_u) - C(u), to `sink` as u finishes.
template <typename Reward, typename Sink>
void price_participants(const Tree& tree, const Reward& reward, Sink&& sink) {
  const double* contribution = tree.contribution_array().data();
  (void)subtree_contribution_sweep(tree, [&](NodeId u, double subtree) {
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
  RewardVector out(tree.node_count(), 0.0);
  price_participants(tree, reward, [&](NodeId u, double r) { out[u] = r; });
  return out;
}

template <typename Reward>
double cdrm_divergence(const Tree& tree, std::span<const double> served,
                       const Reward& reward) {
  require(served.size() == tree.node_count(),
          "CDRM::max_divergence: one served reward per node id");
  double worst = 0.0;
  price_participants(tree, reward, [&](NodeId u, double r) {
    worst = fold_divergence(worst, r, served[u]);
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
                                     std::span<const double> served) const {
  return cdrm_divergence(tree, served, function_);
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
                                      std::span<const double> served) const {
  return cdrm_divergence(tree, served, ReciprocalReward{Phi(), theta_});
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
                                       std::span<const double> served) const {
  return cdrm_divergence(tree, served, LogarithmicReward{Phi(), theta_});
}

}  // namespace itree
