// Incremental reward maintenance for growing deployments.
//
// A production Incentive Tree service must answer "what is u's reward
// now?" after every join and purchase. Recomputing the whole tree is
// O(n) per event; this module maintains the per-node aggregates the
// mechanisms need under two event types —
//   * add_leaf(parent, contribution)     (a join)
//   * add_contribution(u, delta)         (a repeat purchase)
// — in O(depth(u)) per event (only ancestors' aggregates change), with
// O(1) reward queries for the supported mechanisms:
//   * IncrementalSubtreeState: the generic ancestor-aggregate engine.
//     Maintains the decay-weighted subtree sum
//       S(u) = C(u) + decay * sum_{child c} S(c)
//     (decay = 1 gives the plain total C(T_u) that CDRM's (x, y) split
//     needs; decay = a gives the geometric sum S_a(u)), optionally plus
//     the binary-subtree depth BD(u) the split-proof mechanism prices
//     on, and one running total. Mechanisms price from it through
//     Mechanism::rewards_from_aggregates().
//   * IncrementalRctState: maintains the TDRM (Algorithm 4) chain
//     aggregates on the *virtual* Reward Computation Tree, never
//     materializing it.
//
// Each event's ancestor walk runs inside the call that applies it, so
// the state is complete between any two calls: a query or a snapshot
// export never finds work owed, and WAL replay (one call per logged
// event) runs the same arithmetic in the same order as the live run.
// Tests verify event-by-event equivalence with the batch mechanisms.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/tdrm.h"
#include "tree/tree.h"
#include "util/prefetch.h"

namespace itree {

/// The generic ancestor-aggregate engine: decay-weighted subtree sums
/// (and optionally binary depths) of a growing tree. The tree is owned
/// by the state object: all mutations must go through it so the
/// aggregates stay consistent.
class IncrementalSubtreeState {
 public:
  /// Mirrors Mechanism::AggregateSupport: what to maintain.
  struct Config {
    double decay = 1.0;  ///< per-level weight, in (0, 1]
    bool track_binary_depth = false;
    /// total_aggregate() is sum_u C(u) * S(u) instead of sum_u S(u).
    bool own_weighted_total = false;
  };

  /// Plain totals, no binary depth (Config{} — spelled as two
  /// constructors because an in-class `= {}` default argument cannot
  /// use Config's member initializers before the class is complete).
  IncrementalSubtreeState();

  explicit IncrementalSubtreeState(Config config);

  /// Builds from an existing tree in O(n).
  IncrementalSubtreeState(Config config, const Tree& initial);

  /// Plain-total convenience (decay = 1, no binary depth).
  explicit IncrementalSubtreeState(const Tree& initial)
      : IncrementalSubtreeState(Config{}, initial) {}

  /// A join: adds a leaf and updates ancestors in O(depth).
  NodeId add_leaf(NodeId parent, double contribution);

  /// A purchase: raises C(u) by delta (>= 0) and updates ancestors.
  void add_contribution(NodeId u, double delta);

  /// S(u) = sum_{v in T_u} decay^{dep_u(v)} C(v); with decay = 1 the
  /// plain total C(T_u).
  double subtree_aggregate(NodeId u) const;

  /// S(u) for every node, indexed by id (the column behind
  /// subtree_aggregate()).
  std::span<const double> subtree_aggregates() const;

  /// Sum of S(u) over participants — or, under own_weighted_total, of
  /// C(u) * S(u) — maintained in O(1) per ancestor step.
  double total_aggregate() const;

  /// BD(u): depth of the deepest embeddable binary subtree (Strahler
  /// recurrence; tree/subtree_sums.h). Exact — a pure integer function
  /// of the tree shape. Requires track_binary_depth.
  std::uint32_t binary_depth(NodeId u) const;

  /// BD(u) for every node, indexed by id. Requires track_binary_depth.
  std::span<const std::uint32_t> binary_depths() const;

  const Tree& tree() const { return tree_; }
  const Config& config() const { return config_; }

  /// Replay hint: prefetches the rows an event at `u` reads first —
  /// parent, S, contribution and last_child. `u`
  /// may lie past the tree's end (a join inside the caller's lookahead
  /// window has not been applied yet); it is clamped to the last node.
  void prefetch_rows(NodeId u) const {
    u = clamp_node(u);
    prefetch_read(tree_.parent_array().data() + u);
    prefetch_read(sums_.data() + u);
    prefetch_read(tree_.contribution_array().data() + u);
    prefetch_read(tree_.last_child_array().data() + u);
  }

  /// Replay hint one ancestor level up: loads parent[u] (clamped as
  /// above) and prefetches that node's rows.
  void prefetch_ancestor_rows(NodeId u) const {
    prefetch_rows(tree_.parent_array()[clamp_node(u)]);
  }

  /// [S(0..n-1) | total]: the history-dependent FP accumulators, for
  /// bit-exact snapshot resumption (see IncrementalRctState). Binary
  /// depths are *not* exported — they are recomputed exactly from the
  /// restored tree shape.
  std::vector<double> export_aggregates() const;

  /// Bulk restore: takes ownership of a checkpointed tree and of `blob`,
  /// the export_aggregates() of a state over an identical tree. The
  /// blob's storage becomes the S column as is (no copy, no zero-fill),
  /// so the state resumes bit-identically without any ancestor walks.
  /// An empty blob (an image that kept no accumulators) rebuilds them
  /// from the tree in O(n) instead, as the building constructor does.
  /// Binary depths, a pure integer function of the shape, are rebuilt
  /// exactly. Requires a fresh state.
  void adopt(Tree&& tree, std::vector<double> blob);

 private:
  /// Adds `delta` at `from` and decay-scaled along the root path,
  /// accumulating the participant total (own-weighted when kOwnWeighted;
  /// see bubble_up's definition).
  template <bool kOwnWeighted>
  void bubble_up(NodeId from, double delta);

  /// Recomputes S and the total from tree_ in O(n).
  void rebuild_sums();

  /// Records that `child`'s BD changed (old_bd == 0: a new child) and
  /// propagates top-two-child updates upward until BD stabilizes.
  void binary_depth_child_changed(NodeId parent, std::uint32_t old_bd,
                                  std::uint32_t new_bd);

  /// Rebuilds bd_/bd_first_/bd_second_ from the tree shape in O(n).
  void rebuild_binary_depths();

  /// min(u, node_count() - 1): an id safe to index every column with.
  NodeId clamp_node(NodeId u) const {
    const auto last = static_cast<NodeId>(tree_.node_count() - 1);
    return u < last ? u : last;
  }

  Config config_;
  Tree tree_;
  std::vector<double> sums_;  ///< S per node
  double total_sum_ = 0.0;    ///< see total_aggregate()
  // Binary-depth maintenance (track_binary_depth only): BD plus the
  // top-two child BDs per node, so a child's change updates the parent
  // in O(1) and propagation stops as soon as BD is unchanged.
  std::vector<std::uint32_t> bd_;
  std::vector<std::uint32_t> bd_first_;
  std::vector<std::uint32_t> bd_second_;
};

/// Maintains TDRM rewards on a growing tree in O(depth) per join and
/// O(N_u + depth) per purchase, with O(1) reward queries.
///
/// TDRM evaluates the geometric rule on the Reward Computation Tree,
/// where participant u appears as the eps-chain CH_u of
/// N_u = ceil(C(u)/mu) nodes (head weight C(u) - (N_u-1)*mu, the rest
/// mu), and the edge (u, v) becomes tail(CH_u) -> head(CH_v). Instead of
/// materializing that tree, this state keeps per *referral* node the
/// chain's summary scalars:
///   D(u) = sum_{v in children(u)} a * H(v)   — the input feeding u's
///          tail from below (H(v) = S_a at the head of CH_v),
///   H(u) = S_a(head of CH_u),
///   A(u) = sum_{i=1..N_u} c_i * S_i          — so that
///          R(u) = (lambda/mu)*b * A(u) + phi * C(u),
///   W(u) = dA/dD = sum_i c_i * a^{N_u - i},
///   P(u) = dH/dD = a^{N_u - 1}.
/// Chain sums are *linear* in D, so when a descendant event changes
/// H(v) by dh, every ancestor w updates in O(1): its D gains
/// dd = a*dh, A gains W(w)*dd, H gains P(w)*dd — and the next dd is
/// a * (P(w)*dd). A join appends one chain and bubbles; a purchase
/// rebuilds only u's own chain (N_u may change) in O(N_u) and bubbles.
/// The per-event cost is therefore O(depth_RCT) — the chain lengths
/// along u's ancestor path — matching the ISSUE bound.
///
/// The maintained values track the batch mechanism to FP accumulation
/// error (audited to ~1e-12 event-by-event in tests); they are exactly
/// reproducible from the event stream, which the crash-safe snapshot
/// path relies on via export_aggregates()/adopt().
class IncrementalRctState {
 public:
  /// `phi` is the fairness floor of the budget (Mechanism::phi()).
  IncrementalRctState(const TdrmParams& params, double phi);

  /// A join: adds a leaf, builds its chain, bubbles in O(depth).
  NodeId add_leaf(NodeId parent, double contribution);

  /// A purchase: raises C(u) by delta (>= 0), rebuilds CH_u only, and
  /// bubbles the head-sum delta to the ancestors.
  void add_contribution(NodeId u, double delta);

  /// R(u) = (lambda/mu)*b * A(u) + phi * C(u). O(1).
  double reward(NodeId u) const;

  /// Sum of R(u) over all participants. O(1).
  double total_reward() const;

  /// N_u currently assumed for u's chain (exposed for tests).
  std::size_t chain_length(NodeId u) const;

  const Tree& tree() const { return tree_; }
  const TdrmParams& params() const { return params_; }

  /// Flattens the history-dependent FP accumulators [D | H | A |
  /// total_A] so a snapshot restore can resume *bit-identically* to the
  /// continuously-running state (a fresh rebuild from the tree would
  /// differ in final ulps). Layout: 3 * node_count() + 1 doubles.
  std::vector<double> export_aggregates() const;

  /// Bulk restore counterpart of IncrementalSubtreeState::adopt: takes
  /// ownership of a checkpointed tree and restores D/H/A from `blob`,
  /// the export_aggregates() of a state over an identical tree, each
  /// column written once. The pure-shape scalars (N, W, P) are
  /// recomputed from contributions, which is exact. An empty blob
  /// rebuilds every chain from the tree instead, in O(sum of chain
  /// lengths). Requires a fresh state.
  void adopt(Tree&& tree, std::vector<double> blob);

 private:
  /// Rebuilds every chain and the total from tree_, children first.
  void rebuild_all();

  /// Recomputes N/H/A/W/P for u's chain from C(u) and D(u). O(N_u).
  /// The caller owns the total_agg_ adjustment.
  void rebuild_chain(NodeId u);

  /// Applies an increase `dd` of D(w) and walks to the root.
  void bubble_up(NodeId w, double dd);

  TdrmParams params_;
  double phi_;
  double scale_;  // lambda/mu * b
  Tree tree_;
  std::vector<std::uint32_t> n_;  // chain length N_u
  std::vector<double> d_;         // children input D(u)
  std::vector<double> h_;         // head sum H(u)
  std::vector<double> agg_;       // chain aggregate A(u)
  std::vector<double> w_;         // dA/dD
  std::vector<double> p_;         // dH/dD
  std::vector<double> chain_;     // scratch: per-level S during rebuild
  double total_agg_ = 0.0;        // sum of A(u) over participants
};

}  // namespace itree
