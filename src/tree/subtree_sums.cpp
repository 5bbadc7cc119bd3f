#include "tree/subtree_sums.h"

#include <algorithm>

namespace itree {

std::vector<double> geometric_subtree_sums(const Tree& tree, double a) {
  return geometric_sum_sweep(tree, a, [](NodeId, double) {});
}

std::vector<double> subtree_contributions(const Tree& tree) {
  return subtree_contribution_sweep(tree, [](NodeId, double) {});
}

SubtreeData compute_subtree_data(const Tree& tree) {
  const NodeId* last_child = tree.last_child_array().data();
  const NodeId* next_sibling = tree.next_sibling_array().data();
  SubtreeData out;
  out.subtree_size.resize(tree.node_count());
  out.subtree_contribution =
      subtree_contribution_sweep(tree, [&](NodeId u, double) {
        out.subtree_size[u] = fold_children(
            last_child, next_sibling, u, std::uint32_t{1},
            [&](std::uint32_t size, NodeId c) {
              return size + out.subtree_size[c];
            });
      });
  out.depth = node_depths(tree);
  return out;
}

std::vector<std::uint32_t> binary_subtree_depths(const Tree& tree) {
  // Depth of the deepest complete binary tree embeddable (as a minor)
  // in T_u — the Strahler-number recurrence. A complete binary tree of
  // depth k+1 needs two disjoint subtrees each embedding depth k, so with
  // d1 >= d2 the two largest child values: d(u) = max(d1, d2 + 1).
  // A leaf embeds depth 1. This is the quantity the Emek et al.
  // split-proof mechanism bases rewards on (paper Sec. 4.3): a chain has
  // constant depth no matter how long it grows, which is exactly why
  // that mechanism fails CSI.
  const std::size_t n = tree.node_count();
  const NodeId* last_child = tree.last_child_array().data();
  const NodeId* next_sibling = tree.next_sibling_array().data();
  std::vector<std::uint32_t> out(n);
  for (NodeId u = static_cast<NodeId>(n); u-- > 0;) {
    std::uint32_t first = 0;   // largest child depth
    std::uint32_t second = 0;  // second largest child depth
    for_each_child(last_child, next_sibling, u, [&](NodeId c) {
      const std::uint32_t d = out[c];
      if (d > first) {
        second = first;
        first = d;
      } else if (d > second) {
        second = d;
      }
    });
    out[u] = std::max<std::uint32_t>({1, first, second + 1});
  }
  return out;
}

}  // namespace itree
