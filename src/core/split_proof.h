// Split-proof baseline derived from Emek et al. (EC'11), paper Sec. 4.3.
//
// Emek et al.'s single-item mechanism computes the deepest binary subtree
// under each node and pays based on it; the depth is the Strahler-number
// of the subtree (see tree/subtree_sums.h). We port it to the
// arbitrary-contribution model as
//
//   R(u) = C(u) * (b + lambda * (1 - 2^{1 - BD(u)}))
//
// with phi <= b and b + lambda <= Phi, which preserves the behaviours the
// paper relies on:
//   * rewards are driven by the deepest embeddable binary subtree, so
//     growth along a chain pays nothing extra — exactly the paper's
//     point that "depending on the number of direct children it has, a
//     node may no longer have an incentive to directly solicit additional
//     children": the mechanism FAILS CSI;
//   * splitting identities cannot raise the binary depth of any Sybil
//     above the single node's, so USA/UGSA hold.
// Substitution note (also in DESIGN.md): the original achieves URO in the
// unit-price model via unbounded depth payouts; keeping the payout
// budget-safe for arbitrary contributions caps the reward at
// (b + lambda) * C(u), so PO/URO fail here. The reproduced claim from
// Sec. 4.3 — CSI failure — is unaffected.
#pragma once

#include "core/mechanism.h"

namespace itree {

class SplitProofMechanism : public Mechanism {
 public:
  SplitProofMechanism(BudgetParams budget, double b, double lambda);

  std::string name() const override { return "SplitProof"; }
  std::string params_string() const override;
  RewardVector compute(const Tree& tree) const override;
  PropertySet claimed_properties() const override;

  /// R(u) depends only on C(u) and BD(u), so the aggregate engine
  /// serves it with binary-depth tracking (the subtree sum itself is
  /// unused by the reward, but BD maintenance rides the same walks).
  AggregateSupport aggregate_support() const override {
    return {.supported = true, .decay = 1.0, .binary_depth = true};
  }
  void rewards_from_aggregates(const AggregateView& view, NodeId first,
                               std::span<double> out) const override;

  double b() const { return b_; }
  double lambda() const { return lambda_; }

 private:
  double b_;
  double lambda_;
};

}  // namespace itree
