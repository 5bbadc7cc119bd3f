// The Incentive Tree mechanism interface (paper Sec. 2).
//
// A reward mechanism maps a weighted referral tree T to a non-negative
// reward R(u) per participant, subject to the budget constraint
// R(T) <= Phi * C(T). The system-wide budget parameters are
//   Phi — the fraction of total contribution the organizer pays out, and
//   phi — the per-participant fairness floor of phi-RPC (phi <= Phi).
//
// Each mechanism has exactly one batch form, compute(const Tree&), which
// sweeps the tree's arena columns in place (tree/subtree_sums.h explains
// the descending-id sweep and why it is bit-identical to a postorder
// walk). Serving deployments avoid it altogether: every factory
// mechanism except TDRM (which keeps its own RCT chain state) declares
// aggregate_support() and prices through one hook,
// rewards_from_aggregates(), over the aggregates the engine keeps — for
// one entry on a point read, for one block on a payout.
// RewardService::audit() checks the served rewards once per payout
// through max_divergence(), which runs the same sweep.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/claims.h"
#include "tree/tree.h"

namespace itree {

/// Rewards indexed by NodeId; entry kRoot is always 0.
using RewardVector = std::vector<double>;

/// A mechanism's declaration of how the generic ancestor-aggregate
/// engine (core/incremental.h) can serve it. When `supported`,
/// RewardService maintains one decay-weighted subtree sum per node (plus
/// the binary depth if requested) in O(depth) per event and prices
/// rewards through rewards_from_aggregates() — batch compute() never
/// runs on the serving path.
struct AggregateSupport {
  bool supported = false;
  /// Per-level weight of the maintained subtree sum, in (0, 1].
  double decay = 1.0;
  /// Additionally maintain BD(u) (the split-proof mechanism's input).
  bool binary_depth = false;
  /// Keep the engine's running total as sum_u C(u) * S(u) instead of
  /// sum_u S(u) (the normalized preliminary TDRM's raw reward total).
  bool own_weighted_total = false;
  /// When > 0: the total reward is total_coefficient * (sum over
  /// participants of their subtree aggregate), answerable in O(1).
  /// 0 means "sum the per-participant rewards".
  double total_coefficient = 0.0;
};

/// What the aggregate engine keeps for one campaign, as the pricing
/// hook reads it. Every span is indexed by node id.
struct AggregateView {
  /// The campaign tree: own contributions C(u), the child links and
  /// C(T).
  const Tree& tree;
  /// S(u), the decay-weighted subtree sum sum_{v in T_u}
  /// decay^{dep_u(v)} C(v) under the decay of aggregate_support(); with
  /// decay == 1 the plain subtree total C(T_u).
  std::span<const double> subtree;
  /// BD(u), the deepest embeddable binary subtree (Strahler depth);
  /// empty unless aggregate_support().binary_depth.
  std::span<const std::uint32_t> binary_depth;
  /// The engine's running total: sum_u S(u) over the participants, or
  /// sum_u C(u) * S(u) under own_weighted_total.
  double total = 0.0;
};

/// Entries one streamed block holds: served rewards on the payout path,
/// WAL records in recovery. Bounds what a stream keeps in memory while
/// one virtual call covers thousands of entries.
inline constexpr std::size_t kStreamBlock = 4096;

/// The served reward vector a payout audit checks, read in blocks of at
/// most kStreamBlock entries, so that the whole vector never has to
/// exist at once. `fill(first, out)` writes served[first + i] into
/// out[i]. An audit loads a block, then visits its nodes with no call
/// in the loop.
class ServedRewards {
 public:
  using Fill = std::function<void(NodeId first, std::span<double> out)>;

  /// One loaded block: served[u] for u in [first, first + count).
  struct Block {
    const double* values = nullptr;
    NodeId first = 0;
    NodeId count = 0;

    double operator[](NodeId u) const { return values[u - first]; }
  };

  ServedRewards(std::size_t size, Fill fill);

  std::size_t size() const { return size_; }

  /// Fills and returns served[first, first + count); count <=
  /// kStreamBlock and the range lies within size(). Overwrites the
  /// previous block.
  Block load(NodeId first, NodeId count);

  /// Loads every block from the top id down and calls `run(block)` on
  /// each: the order of the bottom-up audit sweeps.
  template <typename Run>
  void visit_descending(Run&& run) {
    for (std::size_t hi = size_; hi > 0;) {
      const std::size_t lo = hi > kStreamBlock ? hi - kStreamBlock : 0;
      run(load(static_cast<NodeId>(lo), static_cast<NodeId>(hi - lo)));
      hi = lo;
    }
  }

 private:
  std::size_t size_;
  Fill fill_;
  std::vector<double> block_;
};

struct BudgetParams {
  double Phi = 0.5;   ///< budget fraction, 0 < Phi <= 1
  double phi = 0.05;  ///< fairness floor of phi-RPC, 0 <= phi <= Phi

  void validate() const;
};

class Mechanism {
 public:
  virtual ~Mechanism() = default;

  Mechanism(const Mechanism&) = delete;
  Mechanism& operator=(const Mechanism&) = delete;

  /// Mechanism family name, e.g. "Geometric" or "TDRM".
  virtual std::string name() const = 0;

  /// Human-readable parameterization, e.g. "a=0.5 b=0.2".
  virtual std::string params_string() const = 0;

  /// Computes all rewards for the given referral tree. The result has
  /// one entry per node id; the imaginary root's entry is 0. A tree
  /// adopted from a mapped snapshot is read in place, without a copy.
  ///
  /// Thread-safety contract: compute/reward_of are pure functions of
  /// (parameters, tree) — implementations must not keep mutable state,
  /// so one mechanism instance is safely callable from many threads
  /// concurrently (the parallel matrix and attack search rely on this).
  virtual RewardVector compute(const Tree& tree) const = 0;

  /// Largest |R(u) - served[u]| over the participants (the root entry
  /// is skipped); `served` has one entry per node id and is read block
  /// by block. This is the payout audit. Default: compute() plus an
  /// ascending compare pass. Mechanisms whose kernel is a single
  /// bottom-up sweep override it to fold each R(u) into the maximum as
  /// the sweep finishes u, with no output vector; the value is
  /// bit-identical either way. Same thread-safety contract as compute().
  virtual double max_divergence(const Tree& tree,
                                ServedRewards& served) const;

  /// Reward of a single participant. Default: full compute; mechanisms
  /// with cheaper single-node paths may override. Same thread-safety
  /// contract as compute().
  virtual double reward_of(const Tree& tree, NodeId u) const;

  /// How the generic ancestor-aggregate engine can serve this
  /// mechanism; default: not at all. Overriders must also implement
  /// rewards_from_aggregates() with arithmetic matching compute() (tests
  /// audit served against batch).
  virtual AggregateSupport aggregate_support() const { return {}; }

  /// The one pricing hook: out[i] is the reward of node first + i, read
  /// from the engine's aggregates. RewardService calls it for one entry
  /// on a point read and for one block on a payout, so both carry the
  /// same bits. Only called when aggregate_support().supported, and
  /// never for the root; the base throws std::logic_error. Same
  /// thread-safety contract as compute().
  virtual void rewards_from_aggregates(const AggregateView& view,
                                       NodeId first,
                                       std::span<double> out) const;

  /// The property subset the paper claims for this mechanism.
  virtual PropertySet claimed_properties() const = 0;

  const BudgetParams& budget() const { return budget_; }
  double Phi() const { return budget_.Phi; }
  double phi() const { return budget_.phi; }

  std::string display_name() const { return name() + "(" + params_string() + ")"; }

 protected:
  explicit Mechanism(BudgetParams budget);

 private:
  BudgetParams budget_;
};

using MechanismPtr = std::unique_ptr<Mechanism>;

// --- RewardVector helpers ---------------------------------------------------

/// One participant's step of max_divergence(): max(worst, |batch -
/// served|). A NaN difference leaves `worst` as it is.
inline double fold_divergence(double worst, double batch, double served) {
  return std::max(worst, std::fabs(batch - served));
}

/// R(T): total reward paid to all participants.
double total_reward(const RewardVector& rewards);

/// Profit P(u) = R(u) - C(u) (paper Sec. 2, MLM view).
double profit(const Tree& tree, const RewardVector& rewards, NodeId u);

/// Payment Pay(u) = C(u) - R(u) (paper Sec. 2, MLM view).
double payment(const Tree& tree, const RewardVector& rewards, NodeId u);

}  // namespace itree
