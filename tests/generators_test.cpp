// Unit tests for tree generators and contribution models.
#include <gtest/gtest.h>

#include "tree/generators.h"
#include "tree/io.h"
#include "tree/subtree_sums.h"

namespace itree {
namespace {

TEST(ContributionModels, FixedAlwaysReturnsValue) {
  Rng rng(1);
  auto sampler = fixed_contribution(2.5);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(sampler(rng), 2.5);
  }
}

TEST(ContributionModels, UniformStaysInRange) {
  Rng rng(2);
  auto sampler = uniform_contribution(1.0, 3.0);
  for (int i = 0; i < 1000; ++i) {
    const double c = sampler(rng);
    EXPECT_GE(c, 1.0);
    EXPECT_LT(c, 3.0);
  }
}

TEST(ContributionModels, CappedClampsTail) {
  Rng rng(3);
  auto sampler = capped_contribution(pareto_contribution(1.0, 0.5), 4.0);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_LE(sampler(rng), 4.0);
  }
}

TEST(ContributionModels, RejectsInvalidParameters) {
  EXPECT_THROW(fixed_contribution(-1.0), std::invalid_argument);
  EXPECT_THROW(uniform_contribution(3.0, 1.0), std::invalid_argument);
  EXPECT_THROW(capped_contribution(fixed_contribution(1.0), 0.0),
               std::invalid_argument);
}

TEST(Shapes, ChainHasLinearStructure) {
  const Tree tree = make_chain(std::vector<double>{1, 2, 3});
  EXPECT_EQ(tree.participant_count(), 3u);
  EXPECT_EQ(tree.depth(3), 3u);
  EXPECT_DOUBLE_EQ(tree.contribution(2), 2.0);
  EXPECT_EQ(tree.children(3).size(), 0u);
}

TEST(Shapes, StarHasHubAndLeaves) {
  const Tree tree = make_star(6, 2.0, 0.5);
  EXPECT_EQ(tree.participant_count(), 6u);
  EXPECT_EQ(tree.children(1).size(), 5u);
  EXPECT_DOUBLE_EQ(tree.contribution(1), 2.0);
  EXPECT_DOUBLE_EQ(tree.total_contribution(), 2.0 + 5 * 0.5);
}

TEST(Shapes, KaryTreeHasExpectedSize) {
  const Tree tree = make_kary(3, 2, 1.0);  // 1 + 2 + 4 participants
  EXPECT_EQ(tree.participant_count(), 7u);
  const Tree ternary = make_kary(3, 3, 1.0);  // 1 + 3 + 9
  EXPECT_EQ(ternary.participant_count(), 13u);
}

TEST(Shapes, CaterpillarSpineAndLegs) {
  const Tree tree = make_caterpillar(3, 2, 1.0);
  EXPECT_EQ(tree.participant_count(), 3u * 3u);
  // Every leg is a leaf; spine nodes (including the tip, which still has
  // its legs) are internal.
  std::size_t leaves = 0;
  for (NodeId u = 1; u < tree.node_count(); ++u) {
    if (tree.children(u).empty()) {
      ++leaves;
    }
  }
  EXPECT_EQ(leaves, 3u * 2u);
}

TEST(RandomTrees, RecursiveTreeIsDeterministicPerSeed) {
  Rng rng1(77), rng2(77);
  const Tree a = random_recursive_tree(40, fixed_contribution(1.0), rng1);
  const Tree b = random_recursive_tree(40, fixed_contribution(1.0), rng2);
  EXPECT_EQ(to_string(a), to_string(b));
}

TEST(RandomTrees, RecursiveTreeHasRequestedSize) {
  Rng rng(5);
  const Tree tree =
      random_recursive_tree(123, uniform_contribution(0.0, 2.0), rng);
  EXPECT_EQ(tree.participant_count(), 123u);
}

TEST(RandomTrees, PreferentialAttachmentSkewsDegrees) {
  Rng rng_pa(6), rng_rrt(6);
  const std::size_t n = 600;
  const GrowthOptions no_independents{.independent_join_probability = 0.0};
  const Tree pa = preferential_attachment_tree(n, fixed_contribution(1.0),
                                               rng_pa, no_independents);
  const Tree rrt = random_recursive_tree(n, fixed_contribution(1.0), rng_rrt,
                                         no_independents);
  auto max_degree = [](const Tree& tree) {
    std::size_t best = 0;
    for (NodeId u = 1; u < tree.node_count(); ++u) {
      best = std::max(best, tree.children(u).size());
    }
    return best;
  };
  // Rich-get-richer produces a strictly heavier hub than uniform.
  EXPECT_GT(max_degree(pa), max_degree(rrt));
}

TEST(RandomTrees, BoundedDepthRespectsTheBound) {
  Rng rng(7);
  const Tree tree =
      bounded_depth_tree(300, 4, fixed_contribution(1.0), rng);
  const SubtreeData data = compute_subtree_data(tree);
  for (NodeId u = 1; u < tree.node_count(); ++u) {
    EXPECT_LE(data.depth[u], 4u);
  }
}

TEST(RandomTrees, DepthsAgreeWithATopDownRecount) {
  // Tree::depth walks the parent chain and node_depths sweeps ids
  // upward; both must equal depths counted top-down along the child
  // links, on every generator's shape.
  Rng rng(9);
  const std::vector<Tree> trees = {
      make_chain(50, 1.0),
      make_star(20, 2.0, 0.5),
      make_kary(4, 3, 1.0),
      make_caterpillar(6, 3, 1.0),
      random_recursive_tree(500, uniform_contribution(0.0, 2.0), rng),
      preferential_attachment_tree(500, fixed_contribution(1.0), rng),
      bounded_depth_tree(500, 5, fixed_contribution(1.0), rng),
  };
  for (const Tree& tree : trees) {
    std::vector<std::size_t> want(tree.node_count(), 0);
    std::vector<NodeId> stack{kRoot};
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      for (NodeId c : tree.children(u)) {
        want[c] = want[u] + 1;
        stack.push_back(c);
      }
    }
    const std::vector<std::uint32_t> depths = node_depths(tree);
    ASSERT_EQ(depths.size(), tree.node_count());
    for (NodeId u = 0; u < tree.node_count(); ++u) {
      ASSERT_EQ(tree.depth(u), want[u]) << to_string(tree);
      ASSERT_EQ(depths[u], want[u]) << to_string(tree);
    }
  }
}

TEST(RandomTrees, IndependentJoinProbabilityOneMakesAForestOfRoots) {
  Rng rng(8);
  const GrowthOptions all_independent{.independent_join_probability = 1.0};
  const Tree tree = random_recursive_tree(25, fixed_contribution(1.0), rng,
                                          all_independent);
  EXPECT_EQ(tree.children(kRoot).size(), 25u);
}

}  // namespace
}  // namespace itree
