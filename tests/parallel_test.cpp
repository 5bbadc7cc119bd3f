// Tests for the deterministic parallel execution layer: thread-pool
// semantics (exception propagation, empty ranges, nested submission)
// and the bit-identical-at-any-thread-count guarantee for the property
// matrix, the Sybil attack search, corpus generation and simulation
// batches.
#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/registry.h"
#include "properties/matrix.h"
#include "properties/sybil_search.h"
#include "sim/engine.h"
#include "tree/io.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace itree {
namespace {

/// Restores the configured thread count when a test scope exits.
class ScopedThreads {
 public:
  explicit ScopedThreads(std::size_t n) : previous_(thread_count()) {
    set_thread_count(n);
  }
  ~ScopedThreads() { set_thread_count(previous_); }

 private:
  std::size_t previous_;
};

TEST(ParallelFor, EmptyRangeIsANoOp) {
  ScopedThreads threads(4);
  std::atomic<int> calls{0};
  std::vector<ChunkTiming> timings(3);
  parallel_for(
      0, [&](std::size_t) { calls.fetch_add(1); },
      ParallelOptions{.timings = &timings});
  EXPECT_EQ(calls.load(), 0);
  EXPECT_TRUE(timings.empty());  // cleared, not stale
}

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  ScopedThreads threads(8);
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  parallel_for(kCount, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, PropagatesTheFirstExceptionAndStaysUsable) {
  ScopedThreads threads(4);
  EXPECT_THROW(
      parallel_for(100,
                   [](std::size_t i) {
                     if (i == 37) {
                       throw std::runtime_error("boom");
                     }
                   }),
      std::runtime_error);
  // The pool must survive a throwing batch.
  std::atomic<int> sum{0};
  parallel_for(10, [&](std::size_t i) { sum.fetch_add(static_cast<int>(i)); });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ParallelFor, NestedSubmissionRunsInlineWithoutDeadlock) {
  ScopedThreads threads(4);
  std::vector<std::atomic<int>> hits(64);
  parallel_for(8, [&](std::size_t outer) {
    parallel_for(8, [&](std::size_t inner) {
      hits[outer * 8 + inner].fetch_add(1);
    });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "slot " << i;
  }
}

TEST(ParallelMap, ResultsLandInTheirSlots) {
  ScopedThreads threads(8);
  const std::vector<int> values = parallel_map<int>(
      257, [](std::size_t i) { return static_cast<int>(i * i); });
  ASSERT_EQ(values.size(), 257u);
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(values[i], static_cast<int>(i * i));
  }
}

TEST(ParallelFor, ChunkTimingsCoverTheRange) {
  ScopedThreads threads(4);
  std::vector<ChunkTiming> timings;
  parallel_for(
      100, [](std::size_t) {},
      ParallelOptions{.grain = 7, .timings = &timings});
  ASSERT_EQ(timings.size(), (100 + 6) / 7u);
  std::size_t covered = 0;
  for (std::size_t c = 0; c < timings.size(); ++c) {
    EXPECT_EQ(timings[c].first_index, c * 7);
    covered += timings[c].count;
    EXPECT_GE(timings[c].seconds, 0.0);
  }
  EXPECT_EQ(covered, 100u);
}

TEST(Threads, SetThreadCountIsObservable) {
  ScopedThreads threads(3);
  EXPECT_EQ(thread_count(), 3u);
  set_thread_count(1);
  EXPECT_EQ(thread_count(), 1u);
  set_thread_count(0);  // 0 = hardware
  EXPECT_EQ(thread_count(), hardware_thread_count());
}

TEST(Threads, HardwareCountFollowsTheAffinityMask) {
  // Pinned to one allowed CPU, the default pool size is 1 however many
  // CPUs the machine has. The original mask is restored afterwards.
  cpu_set_t original;
  ASSERT_EQ(::sched_getaffinity(0, sizeof(original), &original), 0);
  EXPECT_EQ(hardware_thread_count(),
            std::min<std::size_t>(CPU_COUNT(&original), kMaxThreadCount));
  int first = 0;
  while (!CPU_ISSET(first, &original)) {
    ++first;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(::sched_setaffinity(0, sizeof(one), &one), 0);
  const std::size_t pinned = hardware_thread_count();
  ASSERT_EQ(::sched_setaffinity(0, sizeof(original), &original), 0);
  EXPECT_EQ(pinned, 1u);
}

TEST(Threads, CountsAboveTheCapAreRejectedBeforeThePoolChanges) {
  ScopedThreads threads(2);
  EXPECT_THROW(set_thread_count(kMaxThreadCount + 1), std::invalid_argument);
  EXPECT_THROW(set_thread_count(std::numeric_limits<std::size_t>::max()),
               std::invalid_argument);
  EXPECT_EQ(thread_count(), 2u);
  EXPECT_LE(hardware_thread_count(), kMaxThreadCount);
  // The pool is untouched and still runs work.
  std::vector<int> hits(64, 0);
  parallel_for(hits.size(), [&](std::size_t i) { hits[i] = 1; });
  EXPECT_EQ(std::count(hits.begin(), hits.end(), 1), 64);
}

TEST(RngFork, IndependentOfConsumption) {
  Rng a(123);
  Rng b(123);
  (void)b.next_u64();  // consume: fork must not care
  (void)b.next_u64();
  Rng fa = a.fork(7);
  Rng fb = b.fork(7);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(fa.next_u64(), fb.next_u64());
  }
}

TEST(RngFork, StreamsAreDistinctAndStable) {
  Rng base(20130722);
  EXPECT_NE(base.fork(0).next_u64(), base.fork(1).next_u64());
  EXPECT_NE(base.fork(1).next_u64(), base.fork(2).next_u64());
  // derive_seed is part of the persisted determinism contract: the same
  // (seed, stream) must map to the same engine in every build.
  EXPECT_EQ(Rng::derive_seed(20130722, 0), Rng::derive_seed(20130722, 0));
  EXPECT_NE(Rng::derive_seed(20130722, 0), Rng::derive_seed(20130722, 1));
  EXPECT_NE(Rng::derive_seed(20130722, 0), Rng::derive_seed(20130723, 0));
}

MatrixOptions fast_matrix_options() {
  MatrixOptions options;
  options.corpus.random_trees_per_model = 1;
  options.corpus.random_tree_size = 16;
  options.check.max_nodes_per_tree = 6;
  options.check.booster_rounds = 8;
  options.search.identity_counts = {2};
  options.search.random_splits = 2;
  return options;
}

std::string matrix_fingerprint(const std::vector<MatrixRow>& rows) {
  std::string out = render_matrix(rows);
  out += render_evidence(rows, /*verbose=*/true);
  return out;
}

TEST(Determinism, MatrixIsByteIdenticalAcrossThreadCounts) {
  std::vector<MechanismPtr> mechanisms;
  mechanisms.push_back(make_default(MechanismKind::kGeometric));
  mechanisms.push_back(make_default(MechanismKind::kTdrm));

  std::string serial;
  {
    ScopedThreads threads(1);
    serial = matrix_fingerprint(run_matrix(mechanisms, fast_matrix_options()));
  }
  std::string parallel;
  {
    ScopedThreads threads(8);
    parallel =
        matrix_fingerprint(run_matrix(mechanisms, fast_matrix_options()));
  }
  EXPECT_EQ(serial, parallel);
}

TEST(Determinism, AttackSearchIsBitIdenticalAcrossThreadCounts) {
  const MechanismPtr mechanism = make_default(MechanismKind::kGeometric);
  SearchOptions options;
  for (const SybilScenario& scenario : standard_scenarios()) {
    AttackOutcome serial;
    {
      ScopedThreads threads(1);
      serial = search_attacks(*mechanism, scenario,
                              /*allow_extra_contribution=*/true, options);
    }
    AttackOutcome parallel;
    {
      ScopedThreads threads(8);
      parallel = search_attacks(*mechanism, scenario,
                                /*allow_extra_contribution=*/true, options);
    }
    EXPECT_EQ(serial.honest_reward, parallel.honest_reward);
    EXPECT_EQ(serial.honest_profit, parallel.honest_profit);
    EXPECT_EQ(serial.best_reward, parallel.best_reward);
    EXPECT_EQ(serial.best_profit, parallel.best_profit);
    EXPECT_EQ(serial.best_reward_stream, parallel.best_reward_stream);
    EXPECT_EQ(serial.best_profit_stream, parallel.best_profit_stream);
    EXPECT_EQ(serial.configurations_tried, parallel.configurations_tried);
    EXPECT_EQ(serial.best_reward_config.to_string(),
              parallel.best_reward_config.to_string());
    EXPECT_EQ(serial.best_profit_config.to_string(),
              parallel.best_profit_config.to_string())
        << "scenario " << scenario.label;
  }
}

TEST(Determinism, CorpusIsIdenticalAcrossThreadCounts) {
  std::vector<CorpusTree> serial;
  {
    ScopedThreads threads(1);
    serial = standard_corpus();
  }
  std::vector<CorpusTree> parallel;
  {
    ScopedThreads threads(8);
    parallel = standard_corpus();
  }
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].label, parallel[i].label);
    EXPECT_EQ(to_string(serial[i].tree), to_string(parallel[i].tree))
        << serial[i].label;
  }
}

TEST(Determinism, SimulationBatchMatchesSequentialRuns) {
  const MechanismPtr mechanism = make_default(MechanismKind::kGeometric);
  std::vector<SimulationConfig> configs(3);
  configs[0].epochs = 6;
  configs[0].seed = 1;
  configs[1].epochs = 6;
  configs[1].seed = 2;
  configs[1].sybil_fraction = 0.3;
  configs[2].epochs = 4;
  configs[2].seed = 3;
  configs[2].free_rider_fraction = 0.2;

  ScopedThreads threads(8);
  const std::vector<std::vector<EpochStats>> batch =
      run_simulations(*mechanism, configs);
  ASSERT_EQ(batch.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    SimulationEngine engine(*mechanism, configs[i]);
    const std::vector<EpochStats> expected = engine.run();
    ASSERT_EQ(batch[i].size(), expected.size());
    for (std::size_t e = 0; e < expected.size(); ++e) {
      EXPECT_EQ(batch[i][e].participants, expected[e].participants);
      EXPECT_EQ(batch[i][e].total_contribution,
                expected[e].total_contribution);
      EXPECT_EQ(batch[i][e].total_reward, expected[e].total_reward);
      EXPECT_EQ(batch[i][e].reward_gini, expected[e].reward_gini);
    }
  }
}

}  // namespace
}  // namespace itree
