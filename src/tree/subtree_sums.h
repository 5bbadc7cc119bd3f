// Linear-time per-node aggregates used by every mechanism.
//
// All the paper's mechanisms reduce to subtree recurrences:
//   * Geometric / TDRM:  S_a(u) = C(u) + a * sum_{child c} S_a(c)
//     so that R(u) = b * S_a(u)  (Alg. 1) — one bottom-up pass.
//   * Pachira and the CDRM family: need C(T_u) per node — same pass.
//
// Every kernel walks the Tree arena's own columns in place (no copy,
// no materialized traversal): every tree has parent(u) < u, so a sweep
// over u = n-1 ... 0 finishes all children before their parent, and
// each node pulls its children's values along the first_child /
// next_sibling chain — the join order postorder also visits them in.
// Each node's FP operations therefore read the same finished values in
// the same order as a postorder walk, and the results are bit-identical
// to it (asserted by tests/batch_kernel_test.cpp). Top-down values come
// from an ascending-id sweep (node_depths).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tree/tree.h"

namespace itree {

/// Visiting forms of the S_a and C(T_u) sweeps: `visit(u, value)` is
/// called as node u finishes, in descending-id order (every child of u
/// before u, the root last), and the finished column is returned. A
/// fused consumer — the payout audit — reads each value as it is born
/// instead of making a second pass over a materialized output. The
/// no-op-visitor instantiations are the plain kernels, so each
/// recurrence is written exactly once, in its `_run` form: one
/// descending run of ids hi-1 ... lo finished into `out` (one entry per
/// node), with every node from hi up already finished. A sweep is the
/// run over every id; the audit runs it block by block.
///
/// S_a(u) = C(u) + a * S_a(c1) + ... + a * S_a(ck), children in join order.
template <typename Visit>
void geometric_sum_run(const Tree& tree, double a, std::span<double> out,
                       NodeId lo, NodeId hi, Visit&& visit) {
  const NodeId* first_child = tree.first_child_array().data();
  const NodeId* next_sibling = tree.next_sibling_array().data();
  const double* contribution = tree.contribution_array().data();
  for (NodeId u = hi; u-- > lo;) {
    double s = contribution[u];
    for (NodeId c = first_child[u]; c != kInvalidNode; c = next_sibling[c]) {
      s += a * out[c];
    }
    out[u] = s;
    visit(u, s);
  }
}

template <typename Visit>
std::vector<double> geometric_sum_sweep(const Tree& tree, double a,
                                        Visit&& visit) {
  std::vector<double> out(tree.node_count());
  geometric_sum_run(tree, a, out, 0, static_cast<NodeId>(out.size()),
                    visit);
  return out;
}

/// C(T_u) = ((0 + C(T_c1)) + ... + C(T_ck)) + C(u), children in join order.
template <typename Visit>
void subtree_contribution_run(const Tree& tree, std::span<double> out,
                              NodeId lo, NodeId hi, Visit&& visit) {
  const NodeId* first_child = tree.first_child_array().data();
  const NodeId* next_sibling = tree.next_sibling_array().data();
  const double* contribution = tree.contribution_array().data();
  for (NodeId u = hi; u-- > lo;) {
    double sum = 0.0;
    for (NodeId c = first_child[u]; c != kInvalidNode; c = next_sibling[c]) {
      sum += out[c];
    }
    sum += contribution[u];
    out[u] = sum;
    visit(u, sum);
  }
}

template <typename Visit>
std::vector<double> subtree_contribution_sweep(const Tree& tree,
                                               Visit&& visit) {
  std::vector<double> out(tree.node_count());
  subtree_contribution_run(tree, out, 0, static_cast<NodeId>(out.size()),
                           visit);
  return out;
}

/// S_a(u) = sum_{v in T_u} a^{dep_u(v)} C(v), for all u, in O(n).
std::vector<double> geometric_subtree_sums(const Tree& tree, double a);

/// C(T_u) for all u, in O(n).
std::vector<double> subtree_contributions(const Tree& tree);

/// Per-node structural aggregates, computed in one bottom-up pass.
struct SubtreeData {
  std::vector<double> subtree_contribution;  ///< C(T_u)
  std::vector<std::uint32_t> subtree_size;   ///< |T_u|
  std::vector<std::uint32_t> depth;          ///< dep_root(u)
};

/// subtree_contributions() plus the size and depth columns.
SubtreeData compute_subtree_data(const Tree& tree);

/// Depth of the deepest *binary* subtree rooted at each node: every node
/// may keep at most two of its children. Used by the Emek et al.
/// split-proof baseline (paper Sec. 4.3). A leaf has depth 1; 0 is
/// returned only for nonexistent structure (never here). O(n).
std::vector<std::uint32_t> binary_subtree_depths(const Tree& tree);

}  // namespace itree
