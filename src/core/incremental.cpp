#include "core/incremental.h"

#include <algorithm>
#include <utility>

#include "tree/subtree_sums.h"
#include "util/check.h"

namespace itree {

IncrementalSubtreeState::IncrementalSubtreeState()
    : IncrementalSubtreeState(Config{}) {}

IncrementalSubtreeState::IncrementalSubtreeState(Config config)
    : config_(config) {
  require(config_.decay > 0.0 && config_.decay <= 1.0,
          "IncrementalSubtreeState: decay must be in (0, 1]");
  sums_.push_back(0.0);
  if (config_.track_binary_depth) {
    bd_.push_back(1);
    bd_first_.push_back(0);
    bd_second_.push_back(0);
  }
}

IncrementalSubtreeState::IncrementalSubtreeState(Config config,
                                                 const Tree& initial)
    : config_(config), tree_(initial) {
  require(config_.decay > 0.0 && config_.decay <= 1.0,
          "IncrementalSubtreeState: decay must be in (0, 1]");
  rebuild_sums();
  if (config_.track_binary_depth) {
    rebuild_binary_depths();
  }
}

void IncrementalSubtreeState::rebuild_sums() {
  sums_ = geometric_subtree_sums(tree_, config_.decay);
  const std::span<const double> contribution = tree_.contribution_array();
  total_sum_ = 0.0;
  for (NodeId u = 1; u < tree_.node_count(); ++u) {
    total_sum_ += config_.own_weighted_total ? contribution[u] * sums_[u]
                                             : sums_[u];
  }
}

template <bool kOwnWeighted>
void IncrementalSubtreeState::bubble_up(NodeId from, double delta) {
  // A contribution change of `delta` at `from` changes S(w) by
  // decay^{dep_w(from)} * delta for every ancestor w. total_sum_ gains
  // the same geometric series along the path, excluding the root.
  // Own-weighted, the total is sum_u C(u) * S(u): each ancestor's term
  // gains C(w) * scaled, and `from`'s (whose C already includes delta)
  // gains (C_new + S_old) * delta — c^2 for a join. Every term is >= 0.
  NodeId w = from;
  double scaled = delta;
  const double* contribution = tree_.contribution_array().data();
  double weight = kOwnWeighted ? contribution[from] + sums_[from] : 1.0;
  while (true) {
    sums_[w] += scaled;
    if (w != kRoot) {
      if constexpr (kOwnWeighted) {
        total_sum_ += weight * scaled;
      } else {
        total_sum_ += scaled;
      }
    }
    if (w == kRoot) {
      break;
    }
    w = tree_.parent(w);
    if constexpr (kOwnWeighted) {
      weight = contribution[w];
    }
    scaled *= config_.decay;
    // Underflow early exit: delta >= 0 and decay in (0, 1] keep scaled
    // non-negative, so once it hits +0.0 every remaining ancestor would
    // add +0.0 to an accumulator that is never -0.0 (they start at +0.0
    // and only ever gain non-negative terms; exact cancellation yields
    // +0.0 under round-to-nearest) — a bitwise no-op. Deep-chain shapes
    // (eps-chain) cut from O(depth) to O(log(delta) / log(decay)).
    if (scaled == 0.0) {
      break;
    }
  }
}

void IncrementalSubtreeState::binary_depth_child_changed(
    NodeId parent, std::uint32_t old_bd, std::uint32_t new_bd) {
  // Walks up updating each node's top-two child depths; stops as soon
  // as a BD is unchanged (the classic Strahler-update early exit). BDs
  // only grow (the tree only grows), so updates are monotone.
  NodeId p = parent;
  std::uint32_t child_old = old_bd;  // 0 = a newly inserted child
  std::uint32_t child_new = new_bd;
  while (true) {
    std::uint32_t& first = bd_first_[p];
    std::uint32_t& second = bd_second_[p];
    if (child_old == 0) {
      if (child_new > first) {
        second = first;
        first = child_new;
      } else if (child_new > second) {
        second = child_new;
      }
    } else if (child_old == first && second < first) {
      // The unique maximum child deepened; the runner-up is untouched.
      first = child_new;
    } else if (child_new > first) {
      second = first;
      first = child_new;
    } else if (child_new > second) {
      second = child_new;
    }
    const std::uint32_t updated = std::max({1u, first, second + 1});
    if (updated == bd_[p] || p == kRoot) {
      bd_[p] = updated;
      break;
    }
    child_old = bd_[p];
    bd_[p] = updated;
    child_new = updated;
    p = tree_.parent(p);
  }
}

void IncrementalSubtreeState::rebuild_binary_depths() {
  const std::size_t n = tree_.node_count();
  bd_.assign(n, 1);
  bd_first_.assign(n, 0);
  bd_second_.assign(n, 0);
  // parent(u) < u: a descending sweep finishes every child first. Pure
  // integer work, so the visiting order cannot change the result.
  const NodeId* first_child = tree_.first_child_array().data();
  const NodeId* next_sibling = tree_.next_sibling_array().data();
  for (NodeId u = static_cast<NodeId>(n); u-- > 0;) {
    for (NodeId child = first_child[u]; child != kInvalidNode;
         child = next_sibling[child]) {
      const std::uint32_t d = bd_[child];
      if (d > bd_first_[u]) {
        bd_second_[u] = bd_first_[u];
        bd_first_[u] = d;
      } else if (d > bd_second_[u]) {
        bd_second_[u] = d;
      }
    }
    bd_[u] = std::max({1u, bd_first_[u], bd_second_[u] + 1});
  }
}

NodeId IncrementalSubtreeState::add_leaf(NodeId parent, double contribution) {
  const NodeId leaf = tree_.add_node(parent, contribution);
  sums_.push_back(0.0);
  if (config_.track_binary_depth) {
    bd_.push_back(1);
    bd_first_.push_back(0);
    bd_second_.push_back(0);
    binary_depth_child_changed(parent, 0, 1);
  }
  if (config_.own_weighted_total) {
    bubble_up<true>(leaf, contribution);
  } else {
    bubble_up<false>(leaf, contribution);
  }
  return leaf;
}

void IncrementalSubtreeState::add_contribution(NodeId u, double delta) {
  require(tree_.contains(u) && u != kRoot,
          "IncrementalSubtreeState::add_contribution: bad node");
  require(delta >= 0.0,
          "IncrementalSubtreeState::add_contribution: delta must be >= 0");
  tree_.set_contribution(u, tree_.contribution(u) + delta);
  if (config_.own_weighted_total) {
    bubble_up<true>(u, delta);
  } else {
    bubble_up<false>(u, delta);
  }
}

double IncrementalSubtreeState::subtree_aggregate(NodeId u) const {
  require(u < sums_.size(), "IncrementalSubtreeState::subtree_aggregate");
  return sums_[u];
}

std::span<const double> IncrementalSubtreeState::subtree_aggregates() const {
  return sums_;
}

double IncrementalSubtreeState::total_aggregate() const {
  return total_sum_;
}

std::uint32_t IncrementalSubtreeState::binary_depth(NodeId u) const {
  require(config_.track_binary_depth,
          "IncrementalSubtreeState::binary_depth: not tracked");
  require(u < bd_.size(), "IncrementalSubtreeState::binary_depth");
  return bd_[u];
}

std::span<const std::uint32_t> IncrementalSubtreeState::binary_depths()
    const {
  require(config_.track_binary_depth,
          "IncrementalSubtreeState::binary_depths: not tracked");
  return bd_;
}

std::vector<double> IncrementalSubtreeState::export_aggregates() const {
  std::vector<double> blob = sums_;
  blob.push_back(total_sum_);
  return blob;
}

void IncrementalSubtreeState::adopt(Tree&& tree, std::vector<double> blob) {
  require(tree_.node_count() == 1,
          "IncrementalSubtreeState::adopt: state already has nodes");
  require(blob.empty() || blob.size() == tree.node_count() + 1,
          "IncrementalSubtreeState::adopt: blob size mismatch");
  tree_ = std::move(tree);
  if (blob.empty()) {
    rebuild_sums();
  } else {
    total_sum_ = blob.back();
    blob.pop_back();
    sums_ = std::move(blob);
  }
  if (config_.track_binary_depth) {
    rebuild_binary_depths();
  }
}

IncrementalRctState::IncrementalRctState(const TdrmParams& params, double phi)
    : params_(params),
      phi_(phi),
      scale_(params.lambda / params.mu * params.b) {
  require(params_.mu > 0.0, "IncrementalRctState: mu must be > 0");
  require(params_.a > 0.0 && params_.a < 1.0,
          "IncrementalRctState: a must be in (0, 1)");
  n_.push_back(0);
  d_.push_back(0.0);
  h_.push_back(0.0);
  agg_.push_back(0.0);
  w_.push_back(0.0);
  p_.push_back(0.0);
}

void IncrementalRctState::rebuild_all() {
  const std::size_t n = tree_.node_count();
  n_.assign(n, 0);
  d_.assign(n, 0.0);
  h_.assign(n, 0.0);
  agg_.assign(n, 0.0);
  w_.assign(n, 0.0);
  p_.assign(n, 0.0);
  // Children before parents, so D(u) is complete when CH_u is built.
  for (NodeId u : tree_.postorder()) {
    for (NodeId child : tree_.children(u)) {
      d_[u] += params_.a * h_[child];
    }
    if (u != kRoot) {
      rebuild_chain(u);
      total_agg_ += agg_[u];
    }
  }
}

void IncrementalRctState::rebuild_chain(NodeId u) {
  const double c = tree_.contribution(u);
  const double mu = params_.mu;
  const double a = params_.a;
  const std::size_t len = rct_chain_length(c, mu);
  const double head_c = c - static_cast<double>(len - 1) * mu;
  if (chain_.size() < len) {
    chain_.resize(len);
  }

  // S bottom-up; the tail is the only chain node fed by the children.
  double s = ((len == 1) ? head_c : mu) + d_[u];
  chain_[len - 1] = s;
  for (std::size_t i = len - 1; i-- > 0;) {
    const double ci = (i == 0) ? head_c : mu;
    s = ci + a * s;
    chain_[i] = s;
  }
  h_[u] = s;

  // A = sum c_i S_i (head first); W = sum c_i a^{N-i} tail-up, leaving
  // pw = a^{N-1} = P.
  double aggregate = 0.0;
  for (std::size_t i = 0; i < len; ++i) {
    const double ci = (i == 0) ? head_c : mu;
    aggregate += ci * chain_[i];
  }
  double weight = 0.0;
  double pw = 1.0;
  for (std::size_t i = len; i-- > 0;) {
    const double ci = (i == 0) ? head_c : mu;
    weight += ci * pw;
    if (i > 0) {
      pw *= a;
    }
  }
  n_[u] = static_cast<std::uint32_t>(len);
  agg_[u] = aggregate;
  w_[u] = weight;
  p_[u] = pw;
}

void IncrementalRctState::bubble_up(NodeId w, double dd) {
  while (true) {
    d_[w] += dd;
    // Underflow early exit, same argument as the subtree engine's:
    // contributions >= 0, mu > 0 and a in (0, 1) keep every chain
    // scalar (W, P, H, D, A) non-negative, so dd >= 0 throughout the
    // walk and no accumulator is ever -0.0. Once dd multiplies down to
    // +0.0, da and dh are +0.0 too and every remaining ancestor update
    // is a bitwise no-op — stop walking. On deep RCT chains this caps
    // the hot-path walk at the float underflow horizon instead of
    // O(depth).
    if (w == kRoot || dd == 0.0) {
      break;
    }
    const double da = w_[w] * dd;
    agg_[w] += da;
    total_agg_ += da;
    const double dh = p_[w] * dd;
    h_[w] += dh;
    dd = params_.a * dh;
    w = tree_.parent(w);
  }
}

NodeId IncrementalRctState::add_leaf(NodeId parent, double contribution) {
  const NodeId leaf = tree_.add_node(parent, contribution);
  n_.push_back(0);
  d_.push_back(0.0);
  h_.push_back(0.0);
  agg_.push_back(0.0);
  w_.push_back(0.0);
  p_.push_back(0.0);
  // The leaf's chain reads nothing upstream (D(leaf) = 0).
  rebuild_chain(leaf);
  total_agg_ += agg_[leaf];
  bubble_up(parent, params_.a * h_[leaf]);
  return leaf;
}

void IncrementalRctState::add_contribution(NodeId u, double delta) {
  require(tree_.contains(u) && u != kRoot,
          "IncrementalRctState::add_contribution: bad node");
  require(delta >= 0.0,
          "IncrementalRctState::add_contribution: delta must be >= 0");
  tree_.set_contribution(u, tree_.contribution(u) + delta);
  const double old_h = h_[u];
  const double old_agg = agg_[u];
  rebuild_chain(u);
  total_agg_ += agg_[u] - old_agg;
  // The parent's D tracks a*H(u); form the delta from the two products
  // so a no-op rebuild (delta small enough to leave H unchanged)
  // bubbles an exact zero.
  const double dd = params_.a * h_[u] - params_.a * old_h;
  bubble_up(tree_.parent(u), dd);
}

double IncrementalRctState::reward(NodeId u) const {
  require(tree_.contains(u) && u != kRoot,
          "IncrementalRctState::reward: not a participant");
  return scale_ * agg_[u] + phi_ * tree_.contribution(u);
}

double IncrementalRctState::total_reward() const {
  return scale_ * total_agg_ + phi_ * tree_.total_contribution();
}

std::size_t IncrementalRctState::chain_length(NodeId u) const {
  require(u < n_.size(), "IncrementalRctState::chain_length");
  return n_[u];
}

std::vector<double> IncrementalRctState::export_aggregates() const {
  const std::size_t n = tree_.node_count();
  std::vector<double> blob;
  blob.reserve(3 * n + 1);
  blob.insert(blob.end(), d_.begin(), d_.end());
  blob.insert(blob.end(), h_.begin(), h_.end());
  blob.insert(blob.end(), agg_.begin(), agg_.end());
  blob.push_back(total_agg_);
  return blob;
}

void IncrementalRctState::adopt(Tree&& tree, std::vector<double> blob) {
  require(tree_.node_count() == 1,
          "IncrementalRctState::adopt: state already has nodes");
  const std::size_t n = tree.node_count();
  require(blob.empty() || blob.size() == 3 * n + 1,
          "IncrementalRctState::adopt: blob size mismatch");
  tree_ = std::move(tree);
  if (blob.empty()) {
    rebuild_all();
    return;
  }
  const auto at = [&blob](std::size_t i) {
    return blob.begin() + static_cast<std::ptrdiff_t>(i);
  };
  d_.assign(at(0), at(n));
  h_.assign(at(n), at(2 * n));
  agg_.assign(at(2 * n), at(3 * n));
  total_agg_ = blob.back();
  // N, W, P are pure functions of the contributions — recompute them
  // (exactly) instead of trusting the blob or a rebuild of the
  // history-dependent accumulators above. The fresh state's root row
  // (all zero) stays; participants are appended, not zero-filled first.
  const double a = params_.a;
  const double mu = params_.mu;
  const std::span<const double> contribution = tree_.contribution_array();
  n_.reserve(n);
  w_.reserve(n);
  p_.reserve(n);
  for (NodeId u = 1; u < n; ++u) {
    const double c = contribution[u];
    const std::size_t len = rct_chain_length(c, mu);
    const double head_c = c - static_cast<double>(len - 1) * mu;
    double weight = 0.0;
    double pw = 1.0;
    for (std::size_t i = len; i-- > 0;) {
      const double ci = (i == 0) ? head_c : mu;
      weight += ci * pw;
      if (i > 0) {
        pw *= a;
      }
    }
    n_.push_back(static_cast<std::uint32_t>(len));
    w_.push_back(weight);
    p_.push_back(pw);
  }
}

}  // namespace itree
