// Contribution-Deterministic Reward Mechanisms (paper Sec. 6).
//
// CDRM rewards depend only on x_p = C(p) and y_p = C(T_p \ {p}) — never
// on the subtree's topology. A reward function R(x, y) is "successfully
// contribution-deterministic" when for all x > 0, y >= 0:
//   (i)   0 < dR/dx < 1
//   (ii)  0 < dR/dy
//   (iii) phi*x < R(x, y) < Phi*x
//   (iv)  R(x, y) >= R(x', x'' + y) + R(x'', y)  whenever x' + x'' = x.
// Theorem 5: any such function yields a mechanism with every property
// except URO (and hence except PO, since (iii) caps the reward below the
// own contribution). Algorithm 5 instantiates two such functions:
//   CDRM-1: R(p) = (Phi - theta/(1 + x + y)) * x
//   CDRM-2: R(p) = Phi*x + theta * ln((1 + y)/(x + y + 1))
// both requiring theta + phi < Phi.
#pragma once

#include <functional>

#include "core/mechanism.h"

namespace itree {

/// A candidate contribution-deterministic reward function R(x, y).
using CdrmFunction = std::function<double(double x, double y)>;

/// Generic CDRM mechanism driven by an arbitrary R(x, y). The caller is
/// responsible for the function being successfully
/// contribution-deterministic (validate with
/// properties/cdrm_validation.h); the two concrete subclasses below are
/// proven instances.
class CdrmMechanism : public Mechanism {
 public:
  CdrmMechanism(BudgetParams budget, std::string name, std::string params,
                CdrmFunction function);

  std::string name() const override { return name_; }
  std::string params_string() const override { return params_; }
  /// One C(T_u) sweep that prices each participant as its subtree
  /// finishes.
  RewardVector compute(const Tree& tree) const override;
  /// The same sweep, folding each R(u) into the maximum instead.
  double max_divergence(const Tree& tree,
                        ServedRewards& served) const override;
  PropertySet claimed_properties() const override;

  /// CDRM rewards are pure functions R(x_p, y_p) of (own, subtree-self)
  /// (Theorem 5), so the plain (decay = 1) subtree total serves them.
  AggregateSupport aggregate_support() const override {
    return {.supported = true, .decay = 1.0};
  }
  /// R(x, y) per node over the type-erased CdrmFunction.
  void rewards_from_aggregates(const AggregateView& view, NodeId first,
                               std::span<double> out) const override;

  /// Evaluates the underlying R(x, y).
  double reward_function(double x, double y) const { return function_(x, y); }

 private:
  std::string name_;
  std::string params_;
  CdrmFunction function_;
};

/// Algorithm 5(i): R(p) = (Phi - theta/(1 + x_p + y_p)) * x_p.
/// Both proven instances run the batch sweeps and the pricing hook
/// rewards_from_aggregates() with their concrete R, which inlines; their
/// CdrmFunction serves reward_function().
class CdrmReciprocal : public CdrmMechanism {
 public:
  CdrmReciprocal(BudgetParams budget, double theta);
  double theta() const { return theta_; }
  RewardVector compute(const Tree& tree) const override;
  double max_divergence(const Tree& tree,
                        ServedRewards& served) const override;
  void rewards_from_aggregates(const AggregateView& view, NodeId first,
                               std::span<double> out) const override;

 private:
  double theta_;
};

/// Algorithm 5(ii): R(p) = Phi*x_p + theta*ln((1 + y_p)/(x_p + y_p + 1)).
class CdrmLogarithmic : public CdrmMechanism {
 public:
  CdrmLogarithmic(BudgetParams budget, double theta);
  double theta() const { return theta_; }
  RewardVector compute(const Tree& tree) const override;
  double max_divergence(const Tree& tree,
                        ServedRewards& served) const override;
  void rewards_from_aggregates(const AggregateView& view, NodeId first,
                               std::span<double> out) const override;

 private:
  double theta_;
};

}  // namespace itree
