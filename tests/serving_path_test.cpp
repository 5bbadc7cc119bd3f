// Tests for the incremental serving paths: event-by-event agreement of
// TDRM with the batch mechanism on randomized streams (including
// purchases that cross mu boundaries and change the eps-chain length),
// the no-batch-compute guarantee of every serving query, and
// thread-count invariance of the final reward bits.
#include <gtest/gtest.h>

#include <cmath>

#include "core/geometric.h"
#include "core/incremental.h"
#include "core/l_transform.h"
#include "core/normalized.h"
#include "core/rct.h"
#include "core/registry.h"
#include "core/split_proof.h"
#include "core/tdrm.h"
#include "server/reward_service.h"
#include "tree/generators.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/strings.h"

namespace itree {
namespace {

TdrmParams default_tdrm_params() {
  return TdrmParams{};  // lambda=0.4 mu=1 a=0.5 b=0.4
}

BudgetParams default_budget_params() { return default_budget(); }

TEST(IncrementalRct, ChainLengthTracksMuBoundaries) {
  const Tdrm mechanism(default_budget_params(), default_tdrm_params());
  IncrementalRctState state(mechanism.params(), mechanism.phi());
  const NodeId u = state.add_leaf(kRoot, 0.3);
  EXPECT_EQ(state.chain_length(u), 1u);

  state.add_contribution(u, 0.7);  // C = 1.0 exactly: still one node
  EXPECT_EQ(state.chain_length(u), 1u);
  EXPECT_EQ(state.chain_length(u), rct_chain_length(1.0, 1.0));

  state.add_contribution(u, 0.25);  // C = 1.25: chain grows to 2
  EXPECT_EQ(state.chain_length(u), 2u);

  state.add_contribution(u, 0.75);  // C = 2.0 exactly: stays at 2
  EXPECT_EQ(state.chain_length(u), 2u);

  state.add_contribution(u, 1.5);  // C = 3.5: jumps to 4
  EXPECT_EQ(state.chain_length(u), 4u);

  // Every boundary crossing kept the maintained reward equal to batch.
  const RewardVector batch = mechanism.compute(state.tree());
  EXPECT_NEAR(state.reward(u), batch[u], 1e-12);
}

/// Drives `events` seeded events through a TDRM service, checking every
/// participant's incremental reward against a fresh batch compute after
/// every single event. Purchase amounts mix uniform deltas with exact
/// quarter-mu steps so chain lengths change at (and exactly on) the mu
/// boundaries.
void run_tdrm_stream(std::uint64_t seed, int events) {
  const MechanismPtr mechanism = make_default(MechanismKind::kTdrm);
  RewardService service(*mechanism);
  Rng rng(seed);
  for (int event = 0; event < events; ++event) {
    const std::size_t n = service.tree().participant_count();
    if (n == 0 || rng.bernoulli(0.6)) {
      const NodeId parent =
          (n == 0 || rng.bernoulli(0.15))
              ? kRoot
              : static_cast<NodeId>(1 + rng.index(n));
      service.apply(JoinEvent{parent, rng.uniform(0.0, 2.5)});
    } else {
      const NodeId u = static_cast<NodeId>(1 + rng.index(n));
      const double delta = rng.bernoulli(0.5)
                               ? rng.uniform(0.0, 2.0)
                               : 0.25 * static_cast<double>(rng.index(9));
      service.apply(ContributeEvent{u, delta});
    }
    const RewardVector batch = mechanism->compute(service.tree());
    for (NodeId u = 1; u < service.tree().node_count(); ++u) {
      ASSERT_NEAR(service.reward(u), batch[u], 1e-12)
          << "event " << event << " node " << u;
    }
  }
  EXPECT_LE(service.audit(), 1e-12);
}

TEST(ServingPath, RandomTdrmStreamMatchesBatchEventByEvent) {
  run_tdrm_stream(301, 250);
  run_tdrm_stream(302, 250);
}

TEST(ServingPath, DeepChainTdrmStreamMatchesBatch) {
  // Deep trees maximize the bubbling distance (worst case for the
  // O(depth_RCT) update path).
  const MechanismPtr mechanism = make_default(MechanismKind::kTdrm);
  RewardService service(*mechanism);
  NodeId tip = kRoot;
  Rng rng(77);
  for (int event = 0; event < 120; ++event) {
    tip = service.apply(JoinEvent{tip, rng.uniform(0.5, 3.0)});
    if (event % 5 == 4) {
      const NodeId u =
          static_cast<NodeId>(1 + rng.index(service.tree().node_count() - 1));
      service.apply(ContributeEvent{u, 0.5});
    }
    const RewardVector batch = mechanism->compute(service.tree());
    for (NodeId u = 1; u < service.tree().node_count(); ++u) {
      ASSERT_NEAR(service.reward(u), batch[u], 1e-12)
          << "event " << event << " node " << u;
    }
  }
}

/// Mechanisms that count their batch sweeps: compute() and
/// max_divergence(), the sweep audit() runs (Geometric fuses it, the
/// others run compute() under it). The service still selects the
/// incremental mode for each, so serving-path queries must never reach
/// either.
template <typename Base>
class Counting : public Base {
 public:
  template <typename... Args>
  explicit Counting(Args... args) : Base(default_budget(), args...) {}
  RewardVector compute(const Tree& tree) const override {
    ++batch_computes;
    return Base::compute(tree);
  }
  double max_divergence(const Tree& tree,
                        ServedRewards& served) const override {
    ++batch_computes;
    return Base::max_divergence(tree, served);
  }
  mutable int batch_computes = 0;
};

class CountingTdrm : public Counting<Tdrm> {
 public:
  CountingTdrm() : Counting(TdrmParams{}) {}
};

class CountingGeometric : public Counting<GeometricMechanism> {
 public:
  CountingGeometric() : Counting(0.5, 0.2) {}
};

class CountingSplitProof : public Counting<SplitProofMechanism> {
 public:
  CountingSplitProof() : Counting(0.1, 0.3) {}
};

class CountingLPachira : public Counting<LPachiraMechanism> {
 public:
  CountingLPachira() : Counting(0.2, 2.0) {}
};

class CountingNormalizedTdrm : public Counting<NormalizedPreliminaryTdrm> {
 public:
  CountingNormalizedTdrm() : Counting(0.5, 0.2) {}
};

template <typename CountingMechanism>
void expect_no_batch_compute_on_serving_path() {
  CountingMechanism mechanism;
  RewardService service(mechanism);
  Rng rng(55);
  double block[7];
  std::vector<NodeId> ids;
  for (int event = 0; event < 60; ++event) {
    if (ids.empty() || rng.bernoulli(0.7)) {
      const NodeId parent =
          ids.empty() ? kRoot : ids[rng.index(ids.size())];
      ids.push_back(service.apply(JoinEvent{parent, rng.uniform(0.0, 2.0)}));
    } else {
      service.apply(ContributeEvent{ids[rng.index(ids.size())],
                                    rng.uniform(0.0, 1.0)});
    }
    // The full serving API: single query, a block, the vector, the
    // streamed vector REWARDS frames and the total STATS reports.
    (void)service.reward(ids.front());
    const std::size_t n = service.tree().node_count();
    service.fill_rewards(
        0, std::span<double>(block, std::min<std::size_t>(7, n)));
    (void)service.rewards();
    service.visit_rewards([](NodeId, std::span<const double>) {});
    (void)service.total_reward();
  }
  EXPECT_EQ(mechanism.batch_computes, 0)
      << "serving-path query invoked the batch mechanism";
  // audit() is *supposed* to run a batch sweep.
  (void)service.audit();
  EXPECT_GT(mechanism.batch_computes, 0);
}

TEST(ServingPath, TdrmRewardsNeverInvokeBatchCompute) {
  expect_no_batch_compute_on_serving_path<CountingTdrm>();
}

TEST(ServingPath, GeometricRewardsNeverInvokeBatchCompute) {
  expect_no_batch_compute_on_serving_path<CountingGeometric>();
}

TEST(ServingPath, SplitProofRewardsNeverInvokeBatchCompute) {
  expect_no_batch_compute_on_serving_path<CountingSplitProof>();
}

TEST(ServingPath, LPachiraRewardsNeverInvokeBatchCompute) {
  expect_no_batch_compute_on_serving_path<CountingLPachira>();
}

TEST(ServingPath, NormalizedTdrmRewardsNeverInvokeBatchCompute) {
  expect_no_batch_compute_on_serving_path<CountingNormalizedTdrm>();
}

/// Drives `events` seeded events through a service on the generalized
/// aggregate engine and compares the final incremental reward vector
/// against one batch compute. Long streams (the acceptance criterion
/// runs 100k events) accumulate rounding differently than the batch
/// postorder, so the bound is relative for large magnitudes:
/// |inc - batch| <= tol * max(1, |batch|).
void run_aggregate_stream(MechanismKind kind, int events,
                          std::uint64_t seed) {
  const MechanismPtr mechanism = make_default(kind);
  RewardService service(*mechanism);
  Rng rng(seed);
  for (int event = 0; event < events; ++event) {
    const std::size_t n = service.tree().participant_count();
    if (n == 0 || rng.bernoulli(0.6)) {
      const NodeId parent =
          (n == 0 || rng.bernoulli(0.15))
              ? kRoot
              : static_cast<NodeId>(1 + rng.index(n));
      service.apply(JoinEvent{parent, rng.uniform(0.0, 2.5)});
    } else {
      service.apply(ContributeEvent{static_cast<NodeId>(1 + rng.index(n)),
                                    rng.uniform(0.0, 1.5)});
    }
  }
  const RewardVector& incremental = service.rewards();
  const RewardVector batch = mechanism->compute(service.tree());
  ASSERT_EQ(incremental.size(), batch.size());
  for (NodeId u = 1; u < batch.size(); ++u) {
    const double scale = std::max(1.0, std::fabs(batch[u]));
    ASSERT_LE(std::fabs(incremental[u] - batch[u]), 1e-12 * scale)
        << mechanism->display_name() << " node " << u;
  }
}

TEST(ServingPath, Cdrm1HundredThousandEventStreamMatchesBatch) {
  run_aggregate_stream(MechanismKind::kCdrmReciprocal, 100000, 401);
}

TEST(ServingPath, Cdrm2HundredThousandEventStreamMatchesBatch) {
  run_aggregate_stream(MechanismKind::kCdrmLogarithmic, 100000, 402);
}

TEST(ServingPath, GeometricHundredThousandEventStreamMatchesBatch) {
  run_aggregate_stream(MechanismKind::kGeometric, 100000, 403);
}

TEST(ServingPath, SplitProofLongStreamMatchesBatch) {
  run_aggregate_stream(MechanismKind::kSplitProof, 20000, 404);
}

/// Replays one fixed event stream and returns the bit rendering of the
/// final reward vector.
std::string stream_reward_bits(const Mechanism& mechanism,
                               std::uint64_t seed) {
  RewardService service(mechanism);
  Rng rng(seed);
  for (int event = 0; event < 400; ++event) {
    const std::size_t n = service.tree().participant_count();
    if (n == 0 || rng.bernoulli(0.65)) {
      const NodeId parent =
          (n == 0 || rng.bernoulli(0.1))
              ? kRoot
              : static_cast<NodeId>(1 + rng.index(n));
      service.apply(JoinEvent{parent, rng.uniform(0.0, 2.0)});
    } else {
      service.apply(ContributeEvent{
          static_cast<NodeId>(1 + rng.index(n)), rng.uniform(0.0, 1.5)});
    }
  }
  return hex_doubles(service.rewards());
}

TEST(ServingPath, RewardBitsInvariantUnderThreadCount) {
  const std::size_t restore = thread_count();
  for (MechanismKind kind :
       {MechanismKind::kTdrm, MechanismKind::kGeometric,
        MechanismKind::kCdrmReciprocal, MechanismKind::kCdrmLogarithmic,
        MechanismKind::kSplitProof}) {
    const MechanismPtr mechanism = make_default(kind);
    set_thread_count(1);
    const std::string one = stream_reward_bits(*mechanism, 888);
    set_thread_count(2);
    const std::string two = stream_reward_bits(*mechanism, 888);
    set_thread_count(8);
    const std::string eight = stream_reward_bits(*mechanism, 888);
    EXPECT_EQ(one, two) << mechanism->display_name();
    EXPECT_EQ(one, eight) << mechanism->display_name();
  }
  set_thread_count(restore);
}

TEST(ServingPath, AggregateRoundTripIsBitExact) {
  // export/import of the opaque accumulator blob must reproduce the
  // running state's rewards bit-for-bit (the crash-safe snapshot
  // contract; see storage/snapshot.h) — for the RCT chain state and for
  // every mechanism on the generalized aggregate engine.
  for (MechanismKind kind :
       {MechanismKind::kTdrm, MechanismKind::kGeometric,
        MechanismKind::kLLuxor, MechanismKind::kCdrmReciprocal,
        MechanismKind::kCdrmLogarithmic, MechanismKind::kSplitProof,
        MechanismKind::kLPachira}) {
    const MechanismPtr mechanism = make_default(kind);
    RewardService original(*mechanism);
    Rng rng(91);
    for (int event = 0; event < 200; ++event) {
      const std::size_t n = original.tree().participant_count();
      if (n == 0 || rng.bernoulli(0.6)) {
        const NodeId parent =
            (n == 0 || rng.bernoulli(0.2))
                ? kRoot
                : static_cast<NodeId>(1 + rng.index(n));
        original.apply(JoinEvent{parent, rng.uniform(0.0, 3.0)});
      } else {
        original.apply(ContributeEvent{
            static_cast<NodeId>(1 + rng.index(n)), rng.uniform(0.0, 2.0)});
      }
    }
    RewardService restored(*mechanism);
    restored.adopt_snapshot(Tree(original.tree()), original.events_applied(),
                            original.export_aggregates());
    const RewardVector expected = original.rewards();
    const RewardVector& actual = restored.rewards();
    ASSERT_EQ(actual.size(), expected.size());
    for (NodeId u = 0; u < expected.size(); ++u) {
      ASSERT_EQ(actual[u], expected[u])
          << mechanism->display_name() << " node " << u;
    }
    EXPECT_EQ(restored.total_reward(), original.total_reward())
        << mechanism->display_name();

    // A restored service must also continue the stream bit-identically.
    Rng continued_rng(17);
    for (RewardService* service : {&original, &restored}) {
      Rng fork = continued_rng;
      for (int event = 0; event < 50; ++event) {
        const std::size_t n = service->tree().participant_count();
        if (fork.bernoulli(0.5)) {
          service->apply(JoinEvent{
              static_cast<NodeId>(1 + fork.index(n)),
              fork.uniform(0.0, 2.0)});
        } else {
          service->apply(ContributeEvent{
              static_cast<NodeId>(1 + fork.index(n)),
              fork.uniform(0.0, 1.0)});
        }
      }
    }
    EXPECT_EQ(hex_doubles(restored.rewards()),
              hex_doubles(original.rewards()))
        << mechanism->display_name();
  }
}

}  // namespace
}  // namespace itree
