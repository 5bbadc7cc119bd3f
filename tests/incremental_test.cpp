// Tests for the incremental reward-maintenance states: event-by-event
// equivalence with the batch mechanisms and binary-depth maintenance.
#include <gtest/gtest.h>

#include "core/geometric.h"
#include "core/incremental.h"
#include "tree/generators.h"
#include "tree/io.h"
#include "tree/subtree_sums.h"
#include "util/rng.h"

namespace itree {
namespace {

IncrementalSubtreeState geometric_state(double decay) {
  return IncrementalSubtreeState(
      IncrementalSubtreeState::Config{.decay = decay});
}

TEST(IncrementalAggregate, RejectsBadDecay) {
  EXPECT_THROW(geometric_state(0.0), std::invalid_argument);
  EXPECT_THROW(geometric_state(-0.5), std::invalid_argument);
  EXPECT_THROW(geometric_state(1.5), std::invalid_argument);
  EXPECT_NO_THROW(geometric_state(1.0));  // plain totals
}

TEST(IncrementalAggregate, MatchesBatchOnHandExample) {
  IncrementalSubtreeState state = geometric_state(0.5);
  const NodeId a = state.add_leaf(kRoot, 5.0);
  const NodeId b = state.add_leaf(a, 3.0);
  state.add_leaf(b, 4.0);
  state.add_leaf(a, 2.0);
  const std::vector<double> batch =
      geometric_subtree_sums(state.tree(), 0.5);
  for (NodeId u = 0; u < state.tree().node_count(); ++u) {
    EXPECT_NEAR(state.subtree_aggregate(u), batch[u], 1e-12)
        << "node " << u;
  }
}

TEST(IncrementalAggregate, ContributionUpdatesBubbleUp) {
  IncrementalSubtreeState state = geometric_state(0.5);
  const NodeId a = state.add_leaf(kRoot, 1.0);
  const NodeId b = state.add_leaf(a, 1.0);
  state.add_contribution(b, 2.0);
  EXPECT_NEAR(state.subtree_aggregate(b), 3.0, 1e-12);
  EXPECT_NEAR(state.subtree_aggregate(a), 1.0 + 0.5 * 3.0, 1e-12);
}

void random_event(IncrementalSubtreeState& state, Rng& rng) {
  if (state.tree().participant_count() == 0 || rng.bernoulli(0.6)) {
    const NodeId parent =
        state.tree().participant_count() == 0 || rng.bernoulli(0.15)
            ? kRoot
            : static_cast<NodeId>(
                  1 + rng.index(state.tree().participant_count()));
    state.add_leaf(parent, rng.uniform(0.0, 3.0));
  } else {
    const NodeId u = static_cast<NodeId>(
        1 + rng.index(state.tree().participant_count()));
    state.add_contribution(u, rng.uniform(0.0, 2.0));
  }
}

TEST(IncrementalAggregate, RandomEventStreamMatchesBatch) {
  Rng rng(51);
  IncrementalSubtreeState state = geometric_state(0.4);
  for (int event = 0; event < 400; ++event) {
    random_event(state, rng);
  }
  const std::vector<double> batch =
      geometric_subtree_sums(state.tree(), 0.4);
  double expected_total = 0.0;
  for (NodeId u = 1; u < state.tree().node_count(); ++u) {
    EXPECT_NEAR(state.subtree_aggregate(u), batch[u], 1e-9);
    expected_total += batch[u];
  }
  EXPECT_NEAR(state.total_aggregate(), expected_total, 1e-9);
}

TEST(IncrementalAggregate, BuildsFromExistingTree) {
  const Tree tree = parse_tree("(5 (3 (4)) (2))");
  IncrementalSubtreeState state(
      IncrementalSubtreeState::Config{.decay = 0.5}, tree);
  const std::vector<double> batch = geometric_subtree_sums(tree, 0.5);
  for (NodeId u = 0; u < tree.node_count(); ++u) {
    EXPECT_NEAR(state.subtree_aggregate(u), batch[u], 1e-12);
  }
  // And keeps tracking after construction.
  state.add_leaf(1, 7.0);
  const std::vector<double> after =
      geometric_subtree_sums(state.tree(), 0.5);
  EXPECT_NEAR(state.subtree_aggregate(1), after[1], 1e-12);
}

TEST(IncrementalAggregate, GeometricRewardMatchesMechanism) {
  const BudgetParams budget{.Phi = 0.5, .phi = 0.05};
  const GeometricMechanism mechanism(budget, 0.5, 0.2);
  IncrementalSubtreeState state = geometric_state(0.5);
  const NodeId a = state.add_leaf(kRoot, 5.0);
  state.add_leaf(a, 3.0);
  const RewardVector batch = mechanism.compute(state.tree());
  const AggregateView view{.tree = state.tree(),
                           .subtree = state.subtree_aggregates()};
  double reward = -1.0;
  mechanism.rewards_from_aggregates(view, a, std::span<double>(&reward, 1));
  EXPECT_NEAR(reward, batch[a], 1e-12);
}

TEST(IncrementalAggregate, OwnWeightedTotalTracksAFreshSum) {
  // Under own_weighted_total the running total is sum_u C(u) * S(u):
  // each ancestor step adds C(w) * scaled, the event's own node
  // (C_new + S_old) * delta. It must track a fresh sum over the
  // maintained columns, and the building constructor and an empty-blob
  // adopt must rebuild it from the tree alone.
  const IncrementalSubtreeState::Config config{.decay = 0.5,
                                               .own_weighted_total = true};
  IncrementalSubtreeState state(config);
  Rng rng(5);
  for (int event = 0; event < 3000; ++event) {
    const std::size_t n = state.tree().participant_count();
    if (n == 0 || rng.bernoulli(0.6)) {
      state.add_leaf(static_cast<NodeId>(rng.index(n + 1)),
                     rng.uniform(0.0, 10.0));
    } else {
      state.add_contribution(static_cast<NodeId>(1 + rng.index(n)),
                             rng.uniform(0.0, 10.0));
    }
  }
  double fresh = 0.0;
  for (NodeId u = 1; u < state.tree().node_count(); ++u) {
    fresh += state.tree().contribution(u) * state.subtree_aggregate(u);
  }
  EXPECT_NEAR(state.total_aggregate(), fresh, 1e-12 * fresh);

  const IncrementalSubtreeState built(config, state.tree());
  EXPECT_NEAR(built.total_aggregate(), fresh, 1e-12 * fresh);
  IncrementalSubtreeState adopted(config);
  adopted.adopt(Tree(state.tree()), {});
  EXPECT_EQ(adopted.total_aggregate(), built.total_aggregate());
  EXPECT_EQ(adopted.export_aggregates(), built.export_aggregates());
  // The plain total is untouched by the new bit.
  const IncrementalSubtreeState plain(
      IncrementalSubtreeState::Config{.decay = 0.5}, state.tree());
  double sum = 0.0;
  for (NodeId u = 1; u < state.tree().node_count(); ++u) {
    sum += plain.subtree_aggregate(u);
  }
  EXPECT_EQ(plain.total_aggregate(), sum);
}

TEST(IncrementalAggregate, RejectsRootQueriesAndBadUpdates) {
  IncrementalSubtreeState state = geometric_state(0.5);
  const NodeId a = state.add_leaf(kRoot, 1.0);
  EXPECT_THROW(state.subtree_aggregate(99), std::invalid_argument);
  EXPECT_THROW(state.add_contribution(kRoot, 1.0), std::invalid_argument);
  EXPECT_THROW(state.add_contribution(a, -1.0), std::invalid_argument);
  EXPECT_THROW(state.add_contribution(99, 1.0), std::invalid_argument);
  EXPECT_THROW(state.binary_depth(a), std::invalid_argument)
      << "binary depth must be rejected when not tracked";
}

TEST(IncrementalSubtree, MatchesBatchOnRandomStream) {
  Rng rng(52);
  IncrementalSubtreeState state;
  for (int event = 0; event < 300; ++event) {
    random_event(state, rng);
  }
  const SubtreeData batch = compute_subtree_data(state.tree());
  for (NodeId u = 0; u < state.tree().node_count(); ++u) {
    EXPECT_NEAR(state.subtree_aggregate(u),
                batch.subtree_contribution[u], 1e-9);
  }
}

TEST(IncrementalSubtree, XYSplitMatchesDefinition) {
  IncrementalSubtreeState state;
  const NodeId a = state.add_leaf(kRoot, 2.0);
  const NodeId b = state.add_leaf(a, 3.0);
  state.add_leaf(b, 1.5);
  // CDRM's split: x = C(u), y = C(T_u) - C(u).
  EXPECT_DOUBLE_EQ(state.tree().contribution(a), 2.0);
  EXPECT_DOUBLE_EQ(state.subtree_aggregate(a) - state.tree().contribution(a),
                   4.5);
  EXPECT_DOUBLE_EQ(state.subtree_aggregate(b) - state.tree().contribution(b),
                   1.5);
}

TEST(IncrementalSubtree, BuildsFromExistingTree) {
  const Tree tree = parse_tree("(2 (3 (1.5)))");
  IncrementalSubtreeState state(tree);
  EXPECT_DOUBLE_EQ(state.subtree_aggregate(1), 6.5);
  EXPECT_DOUBLE_EQ(state.subtree_aggregate(2), 4.5);
}

// --- binary-depth maintenance --------------------------------------

IncrementalSubtreeState depth_state() {
  return IncrementalSubtreeState(
      IncrementalSubtreeState::Config{.decay = 1.0,
                                      .track_binary_depth = true});
}

TEST(IncrementalBinaryDepth, MatchesBatchKernelOnHandExample) {
  IncrementalSubtreeState state = depth_state();
  // A chain never raises BD beyond... check every insertion.
  const NodeId a = state.add_leaf(kRoot, 1.0);
  EXPECT_EQ(state.binary_depth(a), 1u);
  const NodeId b = state.add_leaf(a, 1.0);
  EXPECT_EQ(state.binary_depth(a), 1u) << "one child: still a chain";
  const NodeId c = state.add_leaf(a, 1.0);
  EXPECT_EQ(state.binary_depth(a), 2u) << "two leaf children embed depth 2";
  state.add_leaf(b, 1.0);
  state.add_leaf(b, 1.0);
  EXPECT_EQ(state.binary_depth(b), 2u);
  EXPECT_EQ(state.binary_depth(a), 2u)
      << "needs BOTH children at depth 2 for depth 3";
  state.add_leaf(c, 1.0);
  state.add_leaf(c, 1.0);
  EXPECT_EQ(state.binary_depth(c), 2u);
  EXPECT_EQ(state.binary_depth(a), 3u);
  const std::vector<std::uint32_t> batch =
      binary_subtree_depths(state.tree());
  for (NodeId u = 1; u < state.tree().node_count(); ++u) {
    EXPECT_EQ(state.binary_depth(u), batch[u]) << "node " << u;
  }
}

TEST(IncrementalBinaryDepth, MatchesBatchKernelOnRandomStreams) {
  for (std::uint64_t seed : {7u, 8u, 9u}) {
    Rng rng(seed);
    IncrementalSubtreeState state = depth_state();
    for (int event = 0; event < 500; ++event) {
      random_event(state, rng);
    }
    const std::vector<std::uint32_t> batch =
        binary_subtree_depths(state.tree());
    for (NodeId u = 1; u < state.tree().node_count(); ++u) {
      ASSERT_EQ(state.binary_depth(u), batch[u])
          << "seed " << seed << " node " << u;
    }
  }
}

TEST(IncrementalBinaryDepth, RebuiltFromTreeMatchesMaintained) {
  Rng rng(12);
  IncrementalSubtreeState state = depth_state();
  for (int event = 0; event < 300; ++event) {
    random_event(state, rng);
  }
  const IncrementalSubtreeState rebuilt(
      IncrementalSubtreeState::Config{.decay = 1.0,
                                      .track_binary_depth = true},
      state.tree());
  for (NodeId u = 1; u < state.tree().node_count(); ++u) {
    ASSERT_EQ(state.binary_depth(u), rebuilt.binary_depth(u));
  }
}

}  // namespace
}  // namespace itree
