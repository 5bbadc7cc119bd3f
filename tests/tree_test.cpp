// Unit tests for the referral tree substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "tree/generators.h"
#include "tree/io.h"
#include "tree/tree.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace itree {
namespace {

TEST(Tree, StartsWithOnlyTheImaginaryRoot) {
  Tree tree;
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(tree.participant_count(), 0u);
  EXPECT_EQ(tree.contribution(kRoot), 0.0);
  EXPECT_EQ(tree.parent(kRoot), kInvalidNode);
  EXPECT_EQ(tree.total_contribution(), 0.0);
}

TEST(Tree, AddNodeLinksParentAndChild) {
  Tree tree;
  const NodeId a = tree.add_independent(2.0);
  const NodeId b = tree.add_node(a, 3.0);
  EXPECT_EQ(tree.parent(b), a);
  ASSERT_EQ(tree.children(a).size(), 1u);
  EXPECT_EQ(tree.children(a)[0], b);
  EXPECT_DOUBLE_EQ(tree.total_contribution(), 5.0);
}

TEST(Tree, AddNodeRejectsNegativeContribution) {
  Tree tree;
  EXPECT_THROW(tree.add_independent(-0.5), std::invalid_argument);
}

TEST(Tree, AddNodeRejectsUnknownParent) {
  Tree tree;
  EXPECT_THROW(tree.add_node(42, 1.0), std::invalid_argument);
}

TEST(Tree, SetContributionUpdatesTotal) {
  Tree tree;
  const NodeId a = tree.add_independent(2.0);
  tree.set_contribution(a, 7.5);
  EXPECT_DOUBLE_EQ(tree.contribution(a), 7.5);
  EXPECT_DOUBLE_EQ(tree.total_contribution(), 7.5);
}

TEST(Tree, RootContributionMustStayZero) {
  Tree tree;
  EXPECT_THROW(tree.set_contribution(kRoot, 1.0), std::invalid_argument);
  tree.set_contribution(kRoot, 0.0);  // a no-op is allowed
}

TEST(Tree, DepthCountsEdgesFromRoot) {
  Tree tree;
  const NodeId a = tree.add_independent(1.0);
  const NodeId b = tree.add_node(a, 1.0);
  const NodeId c = tree.add_node(b, 1.0);
  EXPECT_EQ(tree.depth(kRoot), 0u);
  EXPECT_EQ(tree.depth(a), 1u);
  EXPECT_EQ(tree.depth(c), 3u);
}

TEST(Tree, SubtreeReturnsPreorderOfDescendants) {
  const Tree tree = parse_tree("(1 (2 (3)) (4))");
  // ids: 1 -> C=1, 2 -> C=2, 3 -> C=3, 4 -> C=4
  const std::vector<NodeId> subtree = tree.subtree(1);
  ASSERT_EQ(subtree.size(), 4u);
  EXPECT_EQ(subtree[0], 1u);
  EXPECT_EQ(subtree[1], 2u);
  EXPECT_EQ(subtree[2], 3u);
  EXPECT_EQ(subtree[3], 4u);
}

TEST(Tree, SubtreeContributionSumsDescendants) {
  const Tree tree = parse_tree("(1 (2 (3)) (4))");
  EXPECT_DOUBLE_EQ(tree.subtree_contribution(1), 10.0);
  EXPECT_DOUBLE_EQ(tree.subtree_contribution(2), 5.0);
  EXPECT_DOUBLE_EQ(tree.subtree_contribution(4), 4.0);
}

TEST(Tree, PostorderVisitsChildrenBeforeParents) {
  const Tree tree = parse_tree("(1 (2 (3)) (4))");
  const std::vector<NodeId> order = tree.postorder();
  ASSERT_EQ(order.size(), tree.node_count());
  std::vector<std::size_t> position(tree.node_count());
  for (std::size_t i = 0; i < order.size(); ++i) {
    position[order[i]] = i;
  }
  for (NodeId u = 1; u < tree.node_count(); ++u) {
    EXPECT_LT(position[u], position[tree.parent(u)])
        << "node " << u << " must precede its parent";
  }
}

TEST(Tree, PostorderHandlesDeepChainsWithoutRecursion) {
  Tree tree;
  NodeId parent = kRoot;
  for (int i = 0; i < 200000; ++i) {
    parent = tree.add_node(parent, 1.0);
  }
  const std::vector<NodeId> order = tree.postorder();
  EXPECT_EQ(order.size(), tree.node_count());
  EXPECT_EQ(order.front(), parent);  // deepest node first
  EXPECT_EQ(order.back(), kRoot);
}

TEST(Tree, GraftForestCopiesStructureAndContributions) {
  const Tree src = parse_tree("(5 (3) (2 (1)))");
  Tree dst;
  const NodeId anchor = dst.add_independent(9.0);
  const std::vector<NodeId> roots = graft_forest(dst, anchor, src);
  ASSERT_EQ(roots.size(), 1u);
  const NodeId copy = roots[0];
  EXPECT_DOUBLE_EQ(dst.contribution(copy), 5.0);
  EXPECT_EQ(dst.children(copy).size(), 2u);
  EXPECT_DOUBLE_EQ(dst.subtree_contribution(copy), 11.0);
  // Sibling order preserved.
  EXPECT_DOUBLE_EQ(dst.contribution(dst.children(copy)[0]), 3.0);
  EXPECT_DOUBLE_EQ(dst.contribution(dst.children(copy)[1]), 2.0);
}

TEST(Tree, GraftForestCopiesAllForestRoots) {
  const Tree src = parse_tree("(1) (2 (3))");
  Tree dst;
  const NodeId anchor = dst.add_independent(1.0);
  const std::vector<NodeId> roots = graft_forest(dst, anchor, src);
  ASSERT_EQ(roots.size(), 2u);
  EXPECT_DOUBLE_EQ(dst.subtree_contribution(anchor), 7.0);
}

TEST(Tree, GraftForestRejectsGraftingATreeIntoItself) {
  // Appending to the tree being walked would chase its own growing
  // sibling chains; the check fires before any node is added.
  Tree tree = parse_tree("(1 (2)) (3)");
  EXPECT_THROW(graft_forest(tree, 1, tree), std::invalid_argument);
  EXPECT_EQ(to_string(tree), "(1 (2)) (3)");
}

TEST(Tree, RemoveLastNodeUndoesAnAppend) {
  Tree tree;
  const NodeId a = tree.add_independent(2.0);
  tree.add_node(a, 3.0);
  tree.remove_last_node();
  EXPECT_EQ(tree.participant_count(), 1u);
  EXPECT_TRUE(tree.children(a).empty());
  EXPECT_DOUBLE_EQ(tree.total_contribution(), 2.0);
  // Append again: ids are reused deterministically.
  const NodeId b = tree.add_node(a, 1.0);
  EXPECT_EQ(b, 2u);
}

TEST(Tree, RemoveLastNodeRejectsEmptyTree) {
  Tree tree;
  EXPECT_THROW(tree.remove_last_node(), std::invalid_argument);
}

TEST(Tree, ProbePatternLeavesTreeBitIdentical) {
  // The simulator's probe: add, measure, remove must restore exactly.
  Tree tree = parse_tree("(5 (3 (4)) (2))");
  const std::string before = to_string(tree);
  const double total_before = tree.total_contribution();
  // 1.5 is dyadic, so add/subtract round-trips the cached total exactly.
  for (NodeId parent = 1; parent < tree.node_count(); ++parent) {
    tree.add_node(parent, 1.5);
    tree.remove_last_node();
  }
  EXPECT_EQ(to_string(tree), before);
  EXPECT_EQ(tree.total_contribution(), total_before);
}

TEST(Tree, RemoveLastNodeUnlinksOnlyTheNewestSibling) {
  // Arena regression: removing the newest node must rewire the tail of
  // its parent's sibling chain (last-child and prev/next links) while
  // leaving the older siblings untouched, and the next append must land
  // after the surviving tail, not after the removed node.
  Tree tree;
  const NodeId p = tree.add_independent(1.0);
  const NodeId a = tree.add_node(p, 2.0);
  const NodeId b = tree.add_node(p, 3.0);
  tree.add_node(p, 4.0);
  tree.remove_last_node();
  EXPECT_EQ(tree.children(p).to_vector(), (std::vector<NodeId>{a, b}));
  const NodeId c = tree.add_node(p, 5.0);
  EXPECT_EQ(tree.children(p).to_vector(), (std::vector<NodeId>{a, b, c}));
  EXPECT_DOUBLE_EQ(tree.total_contribution(), 11.0);
}

TEST(Tree, RemoveLastNodeKeepsTheForestRootChainIntact) {
  // Same invariant at the imaginary root's child list (forest roots).
  Tree tree;
  const NodeId a = tree.add_independent(1.0);
  const NodeId b = tree.add_independent(2.0);
  tree.add_independent(3.0);
  tree.remove_last_node();
  EXPECT_EQ(tree.children(kRoot).to_vector(), (std::vector<NodeId>{a, b}));
  const NodeId c = tree.add_independent(4.0);
  EXPECT_EQ(tree.children(kRoot).to_vector(),
            (std::vector<NodeId>{a, b, c}));
}

TEST(Tree, GraftForestCarriesContributionsAndDepths) {
  // Grafting re-anchors the copied forest: contributions carry over
  // bit-exactly and depths follow the new anchor.
  const Tree src = parse_tree("(5 (3 (4)))");  // depths 1, 2, 3
  Tree dst;
  const NodeId a = dst.add_independent(1.0);
  const NodeId b = dst.add_node(a, 1.0);  // depth 2
  const NodeId copy = graft_forest(dst, b, src).at(0);
  EXPECT_EQ(dst.depth(copy), 3u);
  EXPECT_EQ(dst.children(copy).size(), 1u);
  EXPECT_EQ(dst.depth(dst.children(copy)[0]), 4u);
  EXPECT_DOUBLE_EQ(dst.total_contribution(), 14.0);
  EXPECT_DOUBLE_EQ(dst.subtree_contribution(copy), 12.0);
}

// --- Bulk builds: column adoption -----------------------------------

/// Borrow-view of every column of an existing tree (the shape the v5
/// snapshot decoder hands to adopt_columns).
Tree::Columns columns_of(const Tree& tree) {
  Tree::Columns columns;
  columns.parent = tree.parent_array();
  columns.first_child = tree.first_child_array();
  columns.last_child = tree.last_child_array();
  columns.next_sibling = tree.next_sibling_array();
  columns.contribution = tree.contribution_array();
  return columns;
}

/// Owned, tamper-able copies of a tree's columns for rejection tests.
struct OwnedColumns {
  explicit OwnedColumns(const Tree& tree)
      : parent(tree.parent_array().begin(), tree.parent_array().end()),
        first_child(tree.first_child_array().begin(),
                    tree.first_child_array().end()),
        last_child(tree.last_child_array().begin(),
                   tree.last_child_array().end()),
        next_sibling(tree.next_sibling_array().begin(),
                     tree.next_sibling_array().end()),
        contribution(tree.contribution_array().begin(),
                     tree.contribution_array().end()) {}

  Tree::Columns view() const {
    return {parent, first_child, last_child, next_sibling, contribution};
  }

  std::vector<NodeId> parent, first_child, last_child, next_sibling;
  std::vector<double> contribution;
};

TEST(TreeAdopt, BorrowsEveryColumnAndMatchesTheOriginal) {
  const Tree want = parse_tree("(5 (3 (4) (1)) (2)) (7 (6))");
  const Tree got =
      Tree::adopt_columns(columns_of(want), want.total_contribution(), nullptr);
  EXPECT_EQ(got.borrowed_column_count(), 5u);
  EXPECT_EQ(got.allocation_count(), 0u);
  EXPECT_EQ(got.total_contribution(), want.total_contribution());
  ASSERT_EQ(got.node_count(), want.node_count());
  for (NodeId u = 0; u < want.node_count(); ++u) {
    EXPECT_EQ(got.parent(u), want.parent(u));
    EXPECT_EQ(got.depth(u), want.depth(u));
    EXPECT_EQ(got.contribution(u), want.contribution(u));
    EXPECT_EQ(got.children(u).to_vector(), want.children(u).to_vector());
  }
  got.validate_links();
  EXPECT_EQ(to_string(got), to_string(want));
}

TEST(TreeAdopt, PrivatizesOnlyTheMutatedColumn) {
  const Tree src = parse_tree("(1 (2) (3))");
  Tree adopted =
      Tree::adopt_columns(columns_of(src), src.total_contribution(), nullptr);
  EXPECT_EQ(adopted.borrowed_column_count(), 5u);

  // A contribution edit privatizes exactly the contribution column; the
  // source arena stays untouched.
  adopted.set_contribution(2, 9.0);
  EXPECT_EQ(adopted.borrowed_column_count(), 4u);
  EXPECT_EQ(adopted.allocation_count(), 1u);
  EXPECT_DOUBLE_EQ(adopted.contribution(2), 9.0);
  EXPECT_DOUBLE_EQ(src.contribution(2), 2.0);

  // An append touches every column.
  adopted.add_node(1, 1.0);
  EXPECT_EQ(adopted.borrowed_column_count(), 0u);
  EXPECT_EQ(adopted.node_count(), src.node_count() + 1);
  EXPECT_EQ(src.node_count(), 4u);
  adopted.validate_links();
}

TEST(TreeAdopt, KeepaliveOutlivesTheSourceHandle) {
  auto src = std::make_shared<Tree>(parse_tree("(5 (3) (2 (1)))"));
  const std::string want = to_string(*src);
  Tree adopted =
      Tree::adopt_columns(columns_of(*src), src->total_contribution(), src);
  src.reset();  // the adopted tree's keepalive still pins the arena
  EXPECT_EQ(to_string(adopted), want);
  Tree copy = adopted;  // copies share the pin (and the borrow)
  EXPECT_EQ(copy.borrowed_column_count(), 5u);
  adopted = Tree();  // dropping one handle keeps the other alive
  EXPECT_EQ(to_string(copy), want);
  copy.validate_links();
}

/// Records every range a privatizing column hands back.
struct RecordingStorage final : BorrowedStorage {
  struct Range {
    const void* data;
    std::size_t bytes;
  };
  void release(const void* data, std::size_t bytes) const override {
    released.push_back({data, bytes});
  }
  mutable std::vector<Range> released;
};

TEST(TreeAdopt, PrivatizingReleasesExactlyTheCopiedRange) {
  const Tree src = parse_tree("(1 (2) (3))");
  const std::size_t n = src.node_count();
  auto storage = std::make_shared<RecordingStorage>();
  Tree adopted = Tree::adopt_columns(columns_of(src), src.total_contribution(),
                                     storage, storage.get());
  EXPECT_TRUE(storage->released.empty());

  // One contribution edit: that column's whole span, once.
  adopted.set_contribution(2, 9.0);
  adopted.set_contribution(3, 8.0);
  ASSERT_EQ(storage->released.size(), 1u);
  EXPECT_EQ(storage->released[0].data, src.contribution_array().data());
  EXPECT_EQ(storage->released[0].bytes, n * sizeof(double));

  // A copy borrows the four 4-byte columns still borrowed and owns the
  // contribution column: its append releases exactly those four, and the
  // original keeps borrowing (and reading) them.
  Tree copy = adopted;
  copy.add_node(1, 1.0);
  ASSERT_EQ(storage->released.size(), 5u);
  std::vector<const void*> released;
  for (std::size_t i = 1; i < storage->released.size(); ++i) {
    released.push_back(storage->released[i].data);
    EXPECT_EQ(storage->released[i].bytes, n * sizeof(NodeId));
  }
  std::vector<const void*> want = {
      src.parent_array().data(), src.first_child_array().data(),
      src.last_child_array().data(), src.next_sibling_array().data()};
  std::sort(released.begin(), released.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(released, want);
  EXPECT_EQ(adopted.borrowed_column_count(), 4u);
  EXPECT_EQ(adopted.node_count(), n);
  adopted.validate_links();

  // Owned columns never call back, and neither does a tree adopted
  // without a storage.
  copy.add_node(2, 1.0);
  Tree plain =
      Tree::adopt_columns(columns_of(src), src.total_contribution(), nullptr);
  plain.add_node(1, 1.0);
  EXPECT_EQ(storage->released.size(), 5u);
}

TEST(TreeAdopt, RejectsUnsafeColumns) {
  const Tree src = parse_tree("(1 (2) (3))");  // ids 1..3, 3 participants
  const double total = src.total_contribution();
  const auto adopt = [&](const OwnedColumns& c) {
    return Tree::adopt_columns(c.view(), total, nullptr);
  };
  {
    OwnedColumns c(src);
    c.parent[2] = 3;  // forward reference
    EXPECT_THROW(adopt(c), std::invalid_argument);
    c.parent[2] = 2;  // self reference
    EXPECT_THROW(adopt(c), std::invalid_argument);
  }
  {
    OwnedColumns c(src);
    c.contribution[3] = -1.0;
    EXPECT_THROW(adopt(c), std::invalid_argument);
  }
  {
    OwnedColumns c(src);
    c.next_sibling[2] = 2;  // sibling chains must strictly increase
    EXPECT_THROW(adopt(c), std::invalid_argument);
    c.next_sibling[2] = 99;  // out of bounds
    EXPECT_THROW(adopt(c), std::invalid_argument);
  }
  {
    OwnedColumns c(src);
    c.first_child[1] = 2;
    c.last_child[1] = kInvalidNode;  // half-open child interval
    EXPECT_THROW(adopt(c), std::invalid_argument);
  }
  {
    OwnedColumns c(src);
    c.parent[0] = 0;  // malformed root row
    EXPECT_THROW(adopt(c), std::invalid_argument);
  }
  {
    OwnedColumns c(src);
    c.next_sibling.pop_back();  // column size mismatch
    EXPECT_THROW(adopt(c), std::invalid_argument);
  }
}

/// The invalid_argument message adopt_columns throws ("" if none).
std::string adopt_error(const OwnedColumns& columns, double total) {
  try {
    Tree::adopt_columns(columns.view(), total, nullptr);
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST(TreeAdopt, RejectsUnsafeColumnsAcrossScanBlocks) {
  // The safety scan runs in blocks of 1 << 16 nodes. Each invariant
  // RejectsUnsafeColumns breaks on a tiny tree is broken here at the
  // first and last node of an interior block and at the last node, and
  // must be reported with its own message at every thread count.
  Rng rng(29);
  const Tree src =
      random_recursive_tree(200000, uniform_contribution(0.0, 2.0), rng);
  const double total = src.total_contribution();
  const NodeId last = static_cast<NodeId>(src.node_count() - 1);
  OwnedColumns c(src);
  struct Corruption {
    const char* message;
    std::function<void(NodeId)> apply;
  };
  const std::vector<Corruption> corruptions = {
      {"Tree::adopt_columns: last child of a leaf",
       [&](NodeId u) {
         c.first_child[u] = kInvalidNode;
         c.last_child[u] = u + 1;
       }},
      {"Tree::adopt_columns: child link out of range",
       [&](NodeId u) {
         c.first_child[u] = u + 1;
         c.last_child[u] = kInvalidNode;
       }},
      {"Tree::adopt_columns: parent id does not precede the node",
       [&](NodeId u) { c.parent[u] = u; }},
      {"Tree::adopt_columns: negative contribution",
       [&](NodeId u) { c.contribution[u] = -1.0; }},
      {"Tree::adopt_columns: next-sibling out of range",
       [&](NodeId u) { c.next_sibling[u] = u; }},
  };
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    set_thread_count(threads);
    EXPECT_EQ(adopt_error(c, total), "");
    for (const NodeId u : {NodeId{1u << 16}, NodeId{(2u << 16) - 1}, last}) {
      for (const Corruption& corruption : corruptions) {
        const OwnedColumns clean = c;
        corruption.apply(u);
        EXPECT_EQ(adopt_error(c, total), corruption.message)
            << "node " << u << ", " << threads << " threads";
        c = clean;
      }
    }
  }
  set_thread_count(0);
}

TEST(TreeAdopt, ValidateLinksCatchesSafeButInconsistentLinks) {
  // A corruption the O(bytes) adoption safety scan admits (every id in
  // range, every traversal terminates) but the full cross-link proof
  // rejects: node 1 claims to be childless while node 2 still points at
  // it. This is the CRC-collision backstop tests and fuzzers run.
  const Tree src = parse_tree("(1 (2))");
  OwnedColumns c(src);
  c.first_child[1] = kInvalidNode;
  c.last_child[1] = kInvalidNode;
  const Tree adopted =
      Tree::adopt_columns(c.view(), src.total_contribution(), nullptr);
  EXPECT_THROW(adopted.validate_links(), std::invalid_argument);
  src.validate_links();  // the untampered arena proves clean

  // Chains that pass every local test (each link in range, strictly
  // increasing, within one parent, ending at last_child) yet are not the
  // canonical append-order chain. Children of 1 are 2, 3, 4.
  const Tree fan = parse_tree("(1 (2) (3) (4))");
  const auto validates = [&](const OwnedColumns& columns) {
    const Tree tree =
        Tree::adopt_columns(columns.view(), fan.total_contribution(), nullptr);
    tree.validate_links();
  };
  {
    OwnedColumns shared(fan);
    shared.next_sibling[2] = 4;  // 2 and 3 both point at 4; 3 is skipped
    EXPECT_THROW(validates(shared), std::invalid_argument);
  }
  {
    OwnedColumns skipped(fan);
    skipped.first_child[1] = 3;  // the chain 3 -> 4 never reaches 2
    EXPECT_THROW(validates(skipped), std::invalid_argument);
  }
  EXPECT_NO_THROW(validates(OwnedColumns(fan)));
}

TEST(TreeIo, RoundTripsSExpressions) {
  const std::string text = "(5 (3) (2 (1))) (4)";
  const Tree tree = parse_tree(text);
  EXPECT_EQ(to_string(tree), text);
}

TEST(TreeIo, ParsesFractionalAndScientificNumbers) {
  const Tree tree = parse_tree("(0.5 (1e2))");
  EXPECT_DOUBLE_EQ(tree.contribution(1), 0.5);
  EXPECT_DOUBLE_EQ(tree.contribution(2), 100.0);
}

TEST(TreeIo, RejectsMalformedInput) {
  EXPECT_THROW(parse_tree("(1 (2)"), std::invalid_argument);
  EXPECT_THROW(parse_tree("1 2"), std::invalid_argument);
  EXPECT_THROW(parse_tree("()"), std::invalid_argument);
}

TEST(TreeIo, DotOutputMentionsEveryEdge) {
  const Tree tree = parse_tree("(1 (2))");
  const std::string dot = to_dot(tree);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
  EXPECT_NE(dot.find("n1 -> n2"), std::string::npos);
}

}  // namespace
}  // namespace itree
