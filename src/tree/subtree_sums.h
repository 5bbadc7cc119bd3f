// Linear-time per-node aggregates used by every mechanism.
//
// All the paper's mechanisms reduce to subtree recurrences:
//   * Geometric / TDRM:  S_a(u) = C(u) + a * sum_{child c} S_a(c)
//     so that R(u) = b * S_a(u)  (Alg. 1) — one bottom-up pass.
//   * Pachira: needs C(T_u) per node — same pass.
//
// Every kernel walks the Tree arena's own columns in place (no copy,
// no materialized traversal): every tree has parent(u) < u, so a sweep
// over u = n-1 ... 0 finishes all children before their parent, and
// each node pulls its children's values along the first_child /
// next_sibling chain — the join order postorder also visits them in.
// Each node's FP operations therefore read the same finished values in
// the same order as a postorder walk, and the results are bit-identical
// to it (asserted by tests/batch_kernel_test.cpp). Top-down values come
// from the arena's depth column or an ascending-id sweep.
#pragma once

#include <cstdint>
#include <vector>

#include "tree/tree.h"

namespace itree {

/// Per-node structural aggregates, computed in one bottom-up pass.
struct SubtreeData {
  std::vector<double> subtree_contribution;  ///< C(T_u)
  std::vector<std::uint32_t> subtree_size;   ///< |T_u|
  std::vector<std::uint32_t> depth;          ///< dep_root(u)
};

/// C(T_u) is accumulated as ((0 + C(T_c1)) + ... + C(T_ck)) + C(u) over
/// the children in join order.
SubtreeData compute_subtree_data(const Tree& tree);

/// S_a(u) = sum_{v in T_u} a^{dep_u(v)} C(v), for all u, in O(n).
std::vector<double> geometric_subtree_sums(const Tree& tree, double a);

/// Depth of the deepest *binary* subtree rooted at each node: every node
/// may keep at most two of its children. Used by the Emek et al.
/// split-proof baseline (paper Sec. 4.3). A leaf has depth 1; 0 is
/// returned only for nonexistent structure (never here). O(n).
std::vector<std::uint32_t> binary_subtree_depths(const Tree& tree);

}  // namespace itree
