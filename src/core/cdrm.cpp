#include "core/cdrm.h"

#include <cmath>

#include "tree/subtree_sums.h"
#include "util/check.h"
#include "util/strings.h"

namespace itree {

CdrmMechanism::CdrmMechanism(BudgetParams budget, std::string name,
                             std::string params, CdrmFunction function)
    : Mechanism(budget),
      name_(std::move(name)),
      params_(std::move(params)),
      function_(std::move(function)) {
  require(function_ != nullptr, "CdrmMechanism: function must not be null");
}

RewardVector CdrmMechanism::compute(const Tree& tree) const {
  const std::vector<double> subtree =
      compute_subtree_data(tree).subtree_contribution;
  const std::span<const double> contribution = tree.contribution_array();
  RewardVector out(tree.node_count(), 0.0);
  for (NodeId u = 1; u < out.size(); ++u) {
    const double x = contribution[u];
    const double y = subtree[u] - x;
    // R(x, y) is only constrained for x > 0; a zero contribution earns
    // zero reward (keeps phi-RPC tight and the budget safe).
    out[u] = (x > 0.0) ? function_(x, y) : 0.0;
  }
  return out;
}

PropertySet CdrmMechanism::claimed_properties() const {
  // Theorem 5 + Theorem 3: everything except URO, and therefore PO
  // (property (iii) caps R below Phi*x <= x).
  return PropertySet::all().without(Property::kURO).without(Property::kPO);
}

namespace {

void check_theta(double theta, const BudgetParams& budget) {
  require(theta > 0.0, "CDRM: theta must be > 0");
  require(theta + budget.phi < budget.Phi,
          "CDRM: need theta + phi < Phi (Algorithm 5)");
}

}  // namespace

CdrmReciprocal::CdrmReciprocal(BudgetParams budget, double theta)
    : CdrmMechanism(budget, "CDRM-1", "theta=" + compact_number(theta),
                    [Phi = budget.Phi, theta](double x, double y) {
                      return (Phi - theta / (1.0 + x + y)) * x;
                    }),
      theta_(theta) {
  check_theta(theta, budget);
}

CdrmLogarithmic::CdrmLogarithmic(BudgetParams budget, double theta)
    : CdrmMechanism(budget, "CDRM-2", "theta=" + compact_number(theta),
                    [Phi = budget.Phi, theta](double x, double y) {
                      return Phi * x +
                             theta * std::log((1.0 + y) / (x + y + 1.0));
                    }),
      theta_(theta) {
  check_theta(theta, budget);
}

}  // namespace itree
