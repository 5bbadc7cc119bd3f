// Topology-Dependent Reward Mechanisms (paper Sec. 5).
//
// PreliminaryTdrm is Algorithm 3 — the quadratic geometric rule
//   R(u) = C(u) * sum_{v in T_u} a^{dep_u(v)} * b * C(v).
// Its quadratic dependence on the own contribution makes Sybil splitting
// unprofitable (USA), but it VIOLATES the budget constraint: scaling it
// down by a global factor would break SL instead. It is exposed here so
// tests and bench E9 can demonstrate exactly that failure; it is not a
// feasible mechanism.
//
// Tdrm is Algorithm 4: it simulates a contribution cap mu by computing
// rewards on the Reward Computation Tree (core/rct.h), where every
// participant is pre-split into its own optimal eps-chain:
//   R'(w) = (lambda/mu) * C'(w) * sum_{x in T'_w} a^{dep_w(x)} b C'(x)
//           + phi * C'(w)                for every RCT node w,
//   R(u)  = sum_{w in CH_u} R'(w)        for every participant u.
// Theorem 4: with lambda < Phi - phi, a + b < 1 and mu > 0 TDRM achieves
// every desirable property except UGSA (a participant can still gain
// profit by *adding contribution* through Sybils — see bench E8 for the
// paper's counterexample).
#pragma once

#include "core/mechanism.h"
#include "core/rct.h"

namespace itree {

class PreliminaryTdrm : public Mechanism {
 public:
  PreliminaryTdrm(BudgetParams budget, double a, double b);

  std::string name() const override { return "PreliminaryTDRM"; }
  std::string params_string() const override;
  RewardVector compute(const Tree& tree) const override;
  PropertySet claimed_properties() const override;

  /// R(u) = C(u) * b * S_a(u): a pure function of (own, decay-a
  /// aggregate). Quadratic in C(u), so there is no O(1) total.
  AggregateSupport aggregate_support() const override {
    return {.supported = true, .decay = a_};
  }
  void rewards_from_aggregates(const AggregateView& view, NodeId first,
                               std::span<double> out) const override;

  double a() const { return a_; }
  double b() const { return b_; }

 private:
  double a_;
  double b_;
};

struct TdrmParams {
  double lambda = 0.4;  ///< reward scale; requires lambda < Phi - phi
  double mu = 1.0;      ///< simulated contribution cap; > 0
  double a = 0.5;       ///< geometric decay; in (0, 1)
  double b = 0.4;       ///< per-level coefficient; a + b < 1
};

class Tdrm : public Mechanism {
 public:
  Tdrm(BudgetParams budget, TdrmParams params);

  std::string name() const override { return "TDRM"; }
  std::string params_string() const override;

  /// Batch kernel: evaluates the chains *virtually*, sweeping the
  /// referral tree's arena children-first and unrolling each CH_u on
  /// the fly — never materializing the RCT. Bit-for-bit equal to the
  /// materializing path (compute_via_rct), which tests assert.
  RewardVector compute(const Tree& tree) const override;
  PropertySet claimed_properties() const override;

  const TdrmParams& params() const { return params_; }

  /// Exposes the transformation step for tests and bench E7.
  RewardComputationTree build_rct(const Tree& tree) const;

  /// Rewards of individual RCT nodes: R'(w) for all w in T'.
  RewardVector compute_on_rct(const RewardComputationTree& rct) const;

  /// The original Algorithm 4 path (materialize the RCT, run the
  /// geometric rule on it, fold chain rewards back). Kept as the
  /// reference the virtual-RCT kernel of compute() is checked against.
  RewardVector compute_via_rct(const Tree& tree) const;

 private:
  TdrmParams params_;
};

}  // namespace itree
