// Parameterized sweeps: the paper's parameter constraints define whole
// mechanism *families*; these TEST_P suites verify the load-bearing
// properties across grids of admissible parameters, not just the
// registry defaults.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>

#include "core/cdrm.h"
#include "core/geometric.h"
#include "core/l_transform.h"
#include "core/tdrm.h"
#include "properties/cdrm_validation.h"
#include "tree/generators.h"
#include "tree/io.h"

namespace itree {
namespace {

BudgetParams budget() { return BudgetParams{.Phi = 0.5, .phi = 0.05}; }

/// A grid point as a test-name piece: each field as `name` + value, with
/// the decimal point spelled `p` ("a0p85_bFraction1").
std::string grid_name(
    std::initializer_list<std::pair<const char*, double>> fields) {
  std::ostringstream out;
  for (const auto& [name, value] : fields) {
    out << (out.tellp() > 0 ? "_" : "") << name << value;
  }
  std::string text = out.str();
  std::replace(text.begin(), text.end(), '.', 'p');
  return text;
}

/// A small but adversarial tree set reused by all sweeps.
std::vector<Tree> sweep_trees() {
  std::vector<Tree> trees;
  trees.push_back(make_chain(30, 1.0));
  trees.push_back(make_star(20, 3.0, 0.5));
  trees.push_back(make_kary(4, 2, 1.0));
  trees.push_back(parse_tree("(0 (3 (0) (2)) (0 (5)))"));
  Tree whale;
  whale.add_independent(73.0);
  trees.push_back(std::move(whale));
  Rng rng(7);
  trees.push_back(random_recursive_tree(
      50, capped_contribution(pareto_contribution(0.3, 1.3), 10.0), rng));
  return trees;
}

void expect_core_guarantees(const Mechanism& mechanism) {
  for (const Tree& tree : sweep_trees()) {
    const RewardVector rewards = mechanism.compute(tree);
    // Budget.
    EXPECT_LE(total_reward(rewards),
              mechanism.Phi() * tree.total_contribution() + 1e-9)
        << mechanism.display_name();
    for (NodeId u = 1; u < tree.node_count(); ++u) {
      // Non-negativity and phi-RPC.
      EXPECT_GE(rewards[u], 0.0) << mechanism.display_name();
      EXPECT_GE(rewards[u],
                mechanism.phi() * tree.contribution(u) - 1e-9)
          << mechanism.display_name();
    }
  }
}

// --- Geometric family -------------------------------------------------------

struct GeometricParams {
  double a;
  double b_fraction;  ///< b = phi + fraction * ((1-a)*Phi - phi)
};

class GeometricSweep : public ::testing::TestWithParam<GeometricParams> {};

TEST_P(GeometricSweep, CoreGuaranteesHoldAcrossTheFamily) {
  const auto [a, fraction] = GetParam();
  const double b_max = (1.0 - a) * budget().Phi;
  const double b = budget().phi + fraction * (b_max - budget().phi);
  const GeometricMechanism mechanism(budget(), a, b);
  expect_core_guarantees(mechanism);
}

TEST_P(GeometricSweep, ChainSplitAlwaysProfitable) {
  // The Theorem 1 USA failure is parameter-independent.
  const auto [a, fraction] = GetParam();
  const double b_max = (1.0 - a) * budget().Phi;
  const double b = budget().phi + fraction * (b_max - budget().phi);
  const GeometricMechanism mechanism(budget(), a, b);
  const double single = mechanism.compute(parse_tree("(2)"))[1];
  const RewardVector split = mechanism.compute(parse_tree("(1 (1))"));
  EXPECT_GT(split[1] + split[2], single + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GeometricSweep,
    // a is admissible only up to 1 - phi/Phi = 0.9 (beyond that no b can
    // satisfy phi <= b <= (1-a)*Phi); 0.85 keeps floating-point slack at
    // the boundary.
    ::testing::Values(GeometricParams{0.1, 0.0}, GeometricParams{0.1, 1.0},
                      GeometricParams{0.5, 0.0}, GeometricParams{0.5, 0.5},
                      GeometricParams{0.85, 0.0},
                      GeometricParams{0.85, 1.0}),
    [](const ::testing::TestParamInfo<GeometricParams>& info) {
      return grid_name(
          {{"a", info.param.a}, {"bFraction", info.param.b_fraction}});
    });

// --- TDRM family -------------------------------------------------------------

class TdrmSweep : public ::testing::TestWithParam<TdrmParams> {};

TEST_P(TdrmSweep, CoreGuaranteesHoldAcrossTheFamily) {
  const Tdrm mechanism(budget(), GetParam());
  expect_core_guarantees(mechanism);
}

TEST_P(TdrmSweep, MuQuantizedSelfSplitAlwaysTies) {
  // USA's tie case holds for every parameterization: joining as the
  // eps-chain the mechanism would build internally changes nothing.
  const TdrmParams params = GetParam();
  const Tdrm mechanism(budget(), params);
  const double total = 2.6 * params.mu;
  Tree single;
  single.add_independent(total);
  const double merged = mechanism.compute(single)[1];

  Tree chain;
  NodeId attach = kRoot;
  double remaining = total;
  std::vector<NodeId> identities;
  while (remaining > 1e-12) {
    // Head first: remainder on top, mu-quanta below.
    const double quantum =
        identities.empty()
            ? remaining - std::floor(remaining / params.mu - 1e-12) *
                              params.mu
            : params.mu;
    attach = chain.add_node(attach, quantum);
    identities.push_back(attach);
    remaining -= quantum;
  }
  double split_total = 0.0;
  const RewardVector rewards = mechanism.compute(chain);
  for (NodeId id : identities) {
    split_total += rewards[id];
  }
  EXPECT_NEAR(split_total, merged, 1e-9) << mechanism.display_name();
}

TEST_P(TdrmSweep, StarSelfSplitNeverWins) {
  const TdrmParams params = GetParam();
  const Tdrm mechanism(budget(), params);
  const double total = 2.0 * params.mu;
  Tree single;
  single.add_independent(total);
  const double merged = mechanism.compute(single)[1];
  Tree star;
  star.add_independent(total / 2);
  star.add_independent(total / 2);
  const RewardVector rewards = mechanism.compute(star);
  EXPECT_LE(rewards[1] + rewards[2], merged + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TdrmSweep,
    ::testing::Values(
        TdrmParams{.lambda = 0.1, .mu = 1.0, .a = 0.5, .b = 0.4},
        TdrmParams{.lambda = 0.4, .mu = 0.25, .a = 0.5, .b = 0.4},
        TdrmParams{.lambda = 0.4, .mu = 10.0, .a = 0.5, .b = 0.4},
        TdrmParams{.lambda = 0.4, .mu = 1.0, .a = 0.1, .b = 0.8},
        TdrmParams{.lambda = 0.4, .mu = 1.0, .a = 0.9, .b = 0.05},
        TdrmParams{.lambda = 0.44, .mu = 2.0, .a = 0.3, .b = 0.6}),
    [](const ::testing::TestParamInfo<TdrmParams>& info) {
      return grid_name({{"lambda", info.param.lambda},
                        {"mu", info.param.mu},
                        {"a", info.param.a},
                        {"b", info.param.b}});
    });

// --- CDRM family -------------------------------------------------------------

class CdrmThetaSweep : public ::testing::TestWithParam<double> {};

TEST_P(CdrmThetaSweep, BothInstancesValidateAcrossTheta) {
  const double theta = GetParam();
  const CdrmReciprocal reciprocal(budget(), theta);
  const CdrmLogarithmic logarithmic(budget(), theta);
  for (const CdrmMechanism* mechanism :
       {static_cast<const CdrmMechanism*>(&reciprocal),
        static_cast<const CdrmMechanism*>(&logarithmic)}) {
    const CdrmValidation validation = validate_cdrm_function(
        [mechanism](double x, double y) {
          return mechanism->reward_function(x, y);
        },
        budget());
    EXPECT_TRUE(validation.ok)
        << mechanism->display_name() << ": " << validation.failure;
    expect_core_guarantees(*mechanism);
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, CdrmThetaSweep,
                         ::testing::Values(0.01, 0.1, 0.25, 0.4, 0.449));

// --- L-Pachira family --------------------------------------------------------

struct PachiraGridParams {
  double beta;
  double delta;
};

class PachiraSweep : public ::testing::TestWithParam<PachiraGridParams> {};

TEST_P(PachiraSweep, CoreGuaranteesHoldAcrossTheFamily) {
  const auto [beta, delta] = GetParam();
  const LPachiraMechanism mechanism(budget(), beta, delta);
  expect_core_guarantees(mechanism);
}

TEST_P(PachiraSweep, SiblingSplitNeverWins) {
  // Jensen on the convex pi: parameter-independent USA lever.
  const auto [beta, delta] = GetParam();
  const LPachiraMechanism mechanism(budget(), beta, delta);
  const Tree merged_tree = parse_tree("(0.01 (4))");
  const double merged = mechanism.compute(merged_tree)[2];
  const Tree split_tree = parse_tree("(0.01 (2) (2))");
  const RewardVector split = mechanism.compute(split_tree);
  EXPECT_LE(split[2] + split[3], merged + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PachiraSweep,
    ::testing::Values(PachiraGridParams{0.1, 0.5}, PachiraGridParams{0.1, 5.0},
                      PachiraGridParams{0.5, 1.0}, PachiraGridParams{1.0, 1.0},
                      PachiraGridParams{0.2, 2.0}),
    [](const ::testing::TestParamInfo<PachiraGridParams>& info) {
      return grid_name({{"beta", info.param.beta}, {"delta", info.param.delta}});
    });

}  // namespace
}  // namespace itree
