// Tests for the batch kernels (tree/subtree_sums.h and every
// Mechanism::compute), which sweep the Tree arena's columns in place:
// descending ids for bottom-up passes, pulling children along the
// sibling chain. Each result must be bit-for-bit equal to the classic
// recurrence run over Tree::postorder()/preorder() — written out here as
// test-local references — on every tree shape, including a 100k-deep
// chain and a tree adopted from a mapped v5 snapshot whose columns are
// still borrowed. The BENCH_* digest trajectory depends on this. The
// payout audit, Mechanism::max_divergence, must equal compute() plus a
// compare pass bit for bit, whether or not a mechanism fuses the two.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "core/cdrm.h"
#include "core/factory.h"
#include "core/geometric.h"
#include "core/incremental.h"
#include "core/l_transform.h"
#include "core/normalized.h"
#include "core/registry.h"
#include "core/split_proof.h"
#include "core/tdrm.h"
#include "lottery/pachira.h"
#include "server/reward_service.h"
#include "storage/snapshot.h"
#include "tree/generators.h"
#include "tree/io.h"
#include "tree/subtree_sums.h"

namespace itree {
namespace {

namespace fs = std::filesystem;

// --- Test-local references: the recurrences over postorder/preorder ----

std::vector<double> reference_geometric_sums(const Tree& tree, double a) {
  std::vector<double> sums(tree.node_count(), 0.0);
  for (NodeId u : tree.postorder()) {
    double s = tree.contribution(u);
    for (NodeId child : tree.children(u)) {
      s += a * sums[child];
    }
    sums[u] = s;
  }
  return sums;
}

SubtreeData reference_subtree_data(const Tree& tree) {
  const std::size_t n = tree.node_count();
  SubtreeData data{std::vector<double>(n, 0.0),
                   std::vector<std::uint32_t>(n, 1),
                   std::vector<std::uint32_t>(n, 0)};
  // Push form: a node adds its own contribution once every child has
  // pushed its finished total into it.
  for (NodeId u : tree.postorder()) {
    data.subtree_contribution[u] += tree.contribution(u);
    if (u != kRoot) {
      const NodeId p = tree.parent(u);
      data.subtree_contribution[p] += data.subtree_contribution[u];
      data.subtree_size[p] += data.subtree_size[u];
    }
  }
  for (NodeId u : tree.preorder()) {
    if (u != kRoot) {
      data.depth[u] = data.depth[tree.parent(u)] + 1;
    }
  }
  return data;
}

std::vector<std::uint32_t> reference_binary_depths(const Tree& tree) {
  std::vector<std::uint32_t> depths(tree.node_count(), 1);
  for (NodeId u : tree.postorder()) {
    std::uint32_t first = 0;
    std::uint32_t second = 0;
    for (NodeId child : tree.children(u)) {
      const std::uint32_t d = depths[child];
      if (d > first) {
        second = first;
        first = d;
      } else if (d > second) {
        second = d;
      }
    }
    depths[u] = std::max<std::uint32_t>({1, first, second + 1});
  }
  return depths;
}

RewardVector reference_tdrm(const Tree& tree, const TdrmParams& params,
                            double phi) {
  const std::size_t n = tree.node_count();
  const double scale = params.lambda / params.mu * params.b;
  std::vector<double> heads(n, 0.0);
  std::vector<double> chain;
  RewardVector out(n, 0.0);
  for (NodeId u : tree.postorder()) {
    if (u == kRoot) {
      continue;
    }
    const double c = tree.contribution(u);
    const std::size_t len = rct_chain_length(c, params.mu);
    const double head = c - static_cast<double>(len - 1) * params.mu;
    chain.resize(len);
    double s = (len == 1) ? head : params.mu;
    for (NodeId v : tree.children(u)) {
      s += params.a * heads[v];
    }
    chain[len - 1] = s;
    for (std::size_t i = len - 1; i-- > 0;) {
      s = ((i == 0) ? head : params.mu) + params.a * s;
      chain[i] = s;
    }
    heads[u] = s;
    double r = 0.0;
    for (std::size_t i = 0; i < len; ++i) {
      const double ci = (i == 0) ? head : params.mu;
      r += scale * ci * chain[i] + phi * ci;
    }
    out[u] = r;
  }
  return out;
}

/// The old per-mechanism reward formulas over the reference aggregates.
/// Mechanism parameters are read back through the concrete classes;
/// NormalizedPreliminaryTdrm exposes none, so its factory defaults
/// (a = 0.5, b = 0.2) are spelled out.
RewardVector reference_rewards(const Mechanism& m, const Tree& tree) {
  const std::size_t n = tree.node_count();
  const double total = tree.total_contribution();
  const double l_scale = m.Phi() * total;  // L-transform: Phi * C(T)
  RewardVector out(n, 0.0);
  if (const auto* g = dynamic_cast<const GeometricMechanism*>(&m)) {
    const std::vector<double> s = reference_geometric_sums(tree, g->a());
    for (NodeId u = 1; u < n; ++u) {
      out[u] = s[u] * g->b();
    }
  } else if (const auto* l = dynamic_cast<const LLuxorMechanism*>(&m)) {
    const std::vector<double> s = reference_geometric_sums(tree, l->delta());
    for (NodeId u = 1; u < n && total > 0.0; ++u) {
      out[u] = (1.0 - l->delta()) / total * s[u] * l_scale;
    }
  } else if (const auto* p = dynamic_cast<const LPachiraMechanism*>(&m)) {
    const Pachira pachira(p->beta(), p->delta());
    const SubtreeData data = reference_subtree_data(tree);
    for (NodeId u = 1; u < n && total > 0.0; ++u) {
      double share = pachira.pi(data.subtree_contribution[u] / total);
      for (NodeId child : tree.children(u)) {
        share -= pachira.pi(data.subtree_contribution[child] / total);
      }
      out[u] = share * l_scale;
    }
  } else if (const auto* sp = dynamic_cast<const SplitProofMechanism*>(&m)) {
    const std::vector<std::uint32_t> bd = reference_binary_depths(tree);
    for (NodeId u = 1; u < n; ++u) {
      const double bonus = 1.0 - std::exp2(1.0 - static_cast<double>(bd[u]));
      out[u] = tree.contribution(u) * (sp->b() + sp->lambda() * bonus);
    }
  } else if (const auto* pt = dynamic_cast<const PreliminaryTdrm*>(&m)) {
    const std::vector<double> s = reference_geometric_sums(tree, pt->a());
    for (NodeId u = 1; u < n; ++u) {
      out[u] = tree.contribution(u) * pt->b() * s[u];
    }
  } else if (dynamic_cast<const NormalizedPreliminaryTdrm*>(&m) != nullptr) {
    out = reference_rewards(PreliminaryTdrm(m.budget(), 0.5, 0.2), tree);
    const double raw = total_reward(out);
    const double cap = m.Phi() * total;
    for (double& r : out) {
      r *= (raw > cap && raw > 0.0) ? cap / raw : 1.0;
    }
  } else if (const auto* t = dynamic_cast<const Tdrm*>(&m)) {
    out = reference_tdrm(tree, t->params(), m.phi());
  } else {
    const auto& c = dynamic_cast<const CdrmMechanism&>(m);
    const SubtreeData data = reference_subtree_data(tree);
    for (NodeId u = 1; u < n; ++u) {
      const double x = tree.contribution(u);
      const double y = data.subtree_contribution[u] - x;
      out[u] = (x > 0.0) ? c.reward_function(x, y) : 0.0;
    }
  }
  return out;
}

/// The audit as one compute() plus a compare pass.
double reference_divergence(const Mechanism& m, const Tree& tree,
                            const std::vector<double>& served) {
  const RewardVector batch = m.compute(tree);
  double worst = 0.0;
  for (NodeId u = 1; u < batch.size(); ++u) {
    worst = std::max(worst, std::fabs(batch[u] - served[u]));
  }
  return worst;
}

/// Mechanism::max_divergence() of a whole in-memory served vector, read
/// block by block as RewardService::audit() reads its served values.
double divergence(const Mechanism& m, const Tree& tree,
                  std::span<const double> served) {
  ServedRewards blocks(served.size(),
                       [served](NodeId first, std::span<double> out) {
                         std::copy_n(served.begin() + first, out.size(),
                                     out.begin());
                       });
  return m.max_divergence(tree, blocks);
}

// --- Tree shapes --------------------------------------------------------

/// Round-trips `tree` through a v5 snapshot file and returns the tree
/// adopted from the mapping, every column still borrowed. The directory
/// is per process: ctest runs test cases as parallel processes.
Tree adopt_through_v5(const Tree& tree) {
  const fs::path dir = fs::temp_directory_path() /
                       ("itree_batch_kernel_v5_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  storage::SnapshotData data;
  data.last_seq = 1;
  data.mechanism = "any";
  storage::CampaignSnapshot campaign;
  campaign.events_applied = tree.participant_count();
  campaign.tree = tree;
  data.campaigns.push_back(std::move(campaign));
  storage::save_snapshot(dir.string(), data);
  Tree adopted = storage::MappedSnapshot(
                     (dir / storage::snapshot_name(data.last_seq)).string())
                     .materialize()
                     .campaigns[0]
                     .tree;
  fs::remove_all(dir);  // the mapping stays pinned by the keepalive
  return adopted;
}

constexpr const char* kFactoryMechanisms[] = {
    "geometric", "l-luxor", "l-pachira", "split-proof", "preliminary-tdrm",
    "norm-preliminary-tdrm", "tdrm", "cdrm-1", "cdrm-2"};

struct Shape {
  std::string name;
  Tree tree;
};

std::vector<Shape> shapes() {
  std::vector<Shape> out;
  out.push_back({"root-only", Tree{}});
  out.push_back({"hand", parse_tree("(5 (3 (4)) (2))")});
  Rng rng(7);
  out.push_back({"random-recursive",
                 random_recursive_tree(3000, uniform_contribution(0.0, 3.0),
                                       rng)});
  out.push_back({"chain-100k", make_chain(100000, 1.5)});
  out.push_back({"star", make_star(500, 2.0, 1.0)});
  out.push_back({"caterpillar", make_caterpillar(200, 3, 1.25)});
  Tree shrunk = random_recursive_tree(
      1000, capped_contribution(pareto_contribution(0.5, 1.2), 40.0), rng);
  for (int i = 0; i < 5; ++i) {
    shrunk.remove_last_node();
  }
  out.push_back({"after-remove-last-node", std::move(shrunk)});
  Tree adopted = adopt_through_v5(random_recursive_tree(
      2000, capped_contribution(pareto_contribution(0.5, 1.2), 40.0), rng));
  EXPECT_EQ(adopted.borrowed_column_count(), 5u);
  out.push_back({"v5-adopted", std::move(adopted)});
  return out;
}

void expect_bit_equal(const std::vector<double>& got,
                      const std::vector<double>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t u = 0; u < want.size(); ++u) {
    // Bit equality (EXPECT_EQ on doubles would also accept +0 == -0).
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[u]),
              std::bit_cast<std::uint64_t>(want[u]))
        << what << " node " << u << ": " << got[u] << " vs " << want[u];
  }
}

TEST(BatchKernels, EveryShapeNumbersParentsBeforeChildren) {
  // The descending-id sweep is a valid postorder only because every
  // parent has a smaller id than its children, and it pulls exactly the
  // children the sibling chain lists.
  for (const Shape& shape : shapes()) {
    std::size_t listed = 0;
    for (NodeId u = 0; u < shape.tree.node_count(); ++u) {
      ASSERT_TRUE(u == kRoot || shape.tree.parent(u) < u) << shape.name;
      for (NodeId child : shape.tree.children(u)) {
        ASSERT_EQ(shape.tree.parent(child), u) << shape.name;
        ++listed;
      }
    }
    EXPECT_EQ(listed, shape.tree.participant_count()) << shape.name;
  }
}

TEST(BatchKernels, GeometricSumsBitEqualToPostorderReference) {
  for (const Shape& shape : shapes()) {
    for (const double a : {0.3, 0.5, 0.9}) {
      expect_bit_equal(geometric_subtree_sums(shape.tree, a),
                       reference_geometric_sums(shape.tree, a),
                       shape.name + " S_a");
    }
  }
}

TEST(BatchKernels, SubtreeDataBitEqualToPostorderReference) {
  for (const Shape& shape : shapes()) {
    const SubtreeData data = compute_subtree_data(shape.tree);
    const SubtreeData want = reference_subtree_data(shape.tree);
    expect_bit_equal(data.subtree_contribution, want.subtree_contribution,
                     shape.name + " C(T_u)");
    EXPECT_EQ(data.subtree_size, want.subtree_size) << shape.name;
    EXPECT_EQ(data.depth, want.depth) << shape.name;
  }
}

TEST(BatchKernels, BinaryDepthsEqualPostorderReference) {
  for (const Shape& shape : shapes()) {
    EXPECT_EQ(binary_subtree_depths(shape.tree),
              reference_binary_depths(shape.tree))
        << shape.name;
  }
}

TEST(BatchKernels, EveryFactoryMechanismBitEqualToPostorderReference) {
  const std::vector<Shape> trees = shapes();
  for (const char* name : kFactoryMechanisms) {
    const MechanismPtr mechanism = make_mechanism(name);
    for (const Shape& shape : trees) {
      expect_bit_equal(mechanism->compute(shape.tree),
                       reference_rewards(*mechanism, shape.tree),
                       std::string(name) + " on " + shape.name);
    }
  }
}

TEST(BatchKernels, KernelsReadBorrowedColumnsWithoutPrivatizing) {
  // Every kernel computes on a mapped v5 tree in place (its results are
  // checked on the "v5-adopted" shape above): no column is copied.
  Rng rng(19);
  const Tree adopted = adopt_through_v5(
      random_recursive_tree(2500, uniform_contribution(0.0, 3.0), rng));
  for (const char* name : kFactoryMechanisms) {
    EXPECT_EQ(make_mechanism(name)->compute(adopted).size(), 2501u) << name;
  }
  for (const char* name : kFactoryMechanisms) {
    const MechanismPtr mechanism = make_mechanism(name);
    EXPECT_EQ(divergence(*mechanism, adopted, mechanism->compute(adopted)),
              0.0)
        << name;
  }
  (void)compute_subtree_data(adopted);
  (void)binary_subtree_depths(adopted);
  EXPECT_EQ(adopted.borrowed_column_count(), 5u);
  EXPECT_EQ(adopted.allocation_count(), 0u);
}

TEST(BatchKernels, MaxDivergenceEqualsComputeAndCompare) {
  // Served vectors off the batch by a different small amount per node,
  // with exact entries, a NaN (ignored by the max) and an infinity (the
  // largest divergence) mixed in: the fused sweeps must fold exactly
  // what the compare pass folds.
  const std::vector<Shape> trees = shapes();
  for (const char* name : kFactoryMechanisms) {
    const MechanismPtr mechanism = make_mechanism(name);
    for (const Shape& shape : trees) {
      const std::string what = std::string(name) + " on " + shape.name;
      const RewardVector batch = mechanism->compute(shape.tree);
      EXPECT_EQ(divergence(*mechanism, shape.tree, batch), 0.0) << what;
      std::vector<double> served = batch;
      for (NodeId u = 1; u < served.size(); ++u) {
        served[u] += static_cast<double>(u % 7) * 1e-13 * (1.0 + served[u]);
      }
      EXPECT_EQ(divergence(*mechanism, shape.tree, served),
                reference_divergence(*mechanism, shape.tree, served))
          << what;
      if (served.size() > 3) {
        served[served.size() / 2] = std::nan("");
        EXPECT_EQ(divergence(*mechanism, shape.tree, served),
                  reference_divergence(*mechanism, shape.tree, served))
            << what << " with a NaN";
        served[1] = HUGE_VAL;
        EXPECT_EQ(divergence(*mechanism, shape.tree, served), HUGE_VAL)
            << what << " with an infinity";
      }
    }
  }
}

TEST(BatchKernels, MaxDivergenceReportsAOneUlpFlip) {
  // One served reward one ulp off, at the first, a middle and the last
  // participant: the audit returns exactly that difference.
  const std::vector<Shape> trees = shapes();
  for (const char* name : kFactoryMechanisms) {
    const MechanismPtr mechanism = make_mechanism(name);
    for (const Shape& shape : trees) {
      const std::size_t n = shape.tree.node_count();
      if (n < 2) {
        continue;
      }
      const RewardVector batch = mechanism->compute(shape.tree);
      for (const std::size_t u : {std::size_t{1}, n / 2, n - 1}) {
        std::vector<double> served = batch;
        served[u] = std::nextafter(served[u], HUGE_VAL);
        const double difference = served[u] - batch[u];
        ASSERT_GT(difference, 0.0);
        EXPECT_EQ(divergence(*mechanism, shape.tree, served), difference)
            << name << " on " << shape.name << " node " << u;
      }
    }
  }
}

TEST(BatchKernels, TypeErasedCdrmMatchesTheInlinedInstances) {
  // CDRM-1 and CDRM-2 sweep with their concrete R; a CdrmMechanism over
  // the same R as a CdrmFunction takes the type-erased call. Both must
  // produce the same bits.
  const BudgetParams budget;
  const CdrmReciprocal reciprocal(budget, 0.4);
  const CdrmLogarithmic logarithmic(budget, 0.4);
  for (const CdrmMechanism* inlined :
       {static_cast<const CdrmMechanism*>(&reciprocal),
        static_cast<const CdrmMechanism*>(&logarithmic)}) {
    const CdrmMechanism erased(
        budget, "erased", "",
        [inlined](double x, double y) {
          return inlined->reward_function(x, y);
        });
    for (const Shape& shape : shapes()) {
      const std::string what = inlined->name() + " on " + shape.name;
      const RewardVector batch = inlined->compute(shape.tree);
      expect_bit_equal(erased.compute(shape.tree), batch, what);
      std::vector<double> served = batch;
      for (NodeId u = 1; u < served.size(); u += 3) {
        served[u] = std::nextafter(served[u], 0.0);
      }
      EXPECT_EQ(divergence(erased, shape.tree, served),
                divergence(*inlined, shape.tree, served))
          << what;
      // The pricing hook: the typed two-pass loop against the guarded
      // per-node loop over the CdrmFunction.
      const std::vector<double> subtree =
          compute_subtree_data(shape.tree).subtree_contribution;
      const AggregateView view{.tree = shape.tree, .subtree = subtree};
      std::vector<double> typed(subtree.size(), -1.0);
      std::vector<double> hooked(subtree.size(), -2.0);
      inlined->rewards_from_aggregates(view, 0, typed);
      erased.rewards_from_aggregates(view, 0, hooked);
      expect_bit_equal(hooked, typed, what + " pricing hook");
    }
  }
}

TEST(BatchKernels, OnePassRewardsBitEqualToPointQueries) {
  // rewards() fills its cache in one pass over the aggregate columns;
  // each entry must carry the bits reward(u) returns, in every phase of
  // a growing stream.
  for (const char* name : kFactoryMechanisms) {
    const MechanismPtr mechanism = make_mechanism(name);
    RewardService service(*mechanism);
    Rng rng(23);
    for (int phase = 0; phase < 3; ++phase) {
      for (int event = 0; event < 300; ++event) {
        const std::size_t n = service.tree().participant_count();
        if (n == 0 || rng.bernoulli(0.6)) {
          service.apply(JoinEvent{static_cast<NodeId>(rng.index(n + 1)),
                                  rng.uniform(0.0, 2.5)});
        } else {
          service.apply(ContributeEvent{static_cast<NodeId>(1 + rng.index(n)),
                                        rng.uniform(0.0, 1.5)});
        }
      }
      const RewardVector all = service.rewards();
      RewardVector points(all.size(), 0.0);
      for (NodeId u = 1; u < points.size(); ++u) {
        points[u] = service.reward(u);
      }
      expect_bit_equal(all, points, name);
    }
  }
}

TEST(BatchKernels, VirtualRctTdrmBitEqualToMaterializedRct) {
  // The TDRM kernel unrolls each eps-chain on the fly; the reference
  // path materializes the whole RCT. Same arithmetic order ->
  // bit-identical rewards.
  const MechanismPtr mechanism = make_default(MechanismKind::kTdrm);
  const auto* tdrm = dynamic_cast<const Tdrm*>(mechanism.get());
  ASSERT_NE(tdrm, nullptr);
  for (const Shape& shape : shapes()) {
    if (shape.tree.node_count() > 10000) {
      continue;  // the materialized RCT of the deep chain is the slow path
    }
    expect_bit_equal(tdrm->compute(shape.tree),
                     tdrm->compute_via_rct(shape.tree), shape.name);
  }
}

TEST(BatchKernels, AuditCatchesAPerturbedAggregateBlob) {
  // An adopted service whose imported accumulators disagree with its
  // tree must fail the audit; the faithful blob must audit exactly like
  // the service that exported it. Small-integer contributions under a
  // dyadic decay keep every aggregate exact, so for the aggregate-engine
  // mechanisms that audit is exactly 0. The perturbed entry is a
  // participant's S(u) (aggregate engine) or A(u) (TDRM chain state,
  // layout [D | H | A | total]). A CDRM reward moves with S(u) only by
  // dR/dy, far below 1, so there the audit must name exactly the
  // victim's divergence instead of clearing a fixed floor.
  Rng rng(11);
  Tree tree;
  for (NodeId u = 1; u < 400; ++u) {
    tree.add_node(static_cast<NodeId>(rng.uniform_int(0, u - 1)),
                  static_cast<double>(u % 4 + 1));
  }
  const NodeId victim = 123;
  for (const MechanismKind kind :
       {MechanismKind::kGeometric, MechanismKind::kPreliminaryTdrm,
        MechanismKind::kTdrm, MechanismKind::kCdrmReciprocal,
        MechanismKind::kCdrmLogarithmic}) {
    const MechanismPtr mechanism = make_default(kind);
    RewardService source(*mechanism);
    for (NodeId u = 1; u < tree.node_count(); ++u) {
      source.apply(JoinEvent{tree.parent(u), tree.contribution(u)});
    }
    const std::vector<double> blob = source.export_aggregates();
    const bool chain_state = kind == MechanismKind::kTdrm;
    const std::size_t slot =
        chain_state ? 2 * tree.node_count() + victim : victim;

    RewardService faithful(*mechanism);
    faithful.adopt_snapshot(Tree(source.tree()), source.events_applied(),
                            blob);
    EXPECT_EQ(faithful.audit(), source.audit()) << mechanism->display_name();
    if (!chain_state) {
      EXPECT_EQ(faithful.audit(), 0.0) << mechanism->display_name();
    }

    std::vector<double> perturbed = blob;
    perturbed[slot] += 1e-6;
    RewardService corrupt(*mechanism);
    corrupt.adopt_snapshot(Tree(source.tree()), source.events_applied(),
                           perturbed);
    if (dynamic_cast<const CdrmMechanism*>(mechanism.get()) == nullptr) {
      EXPECT_GT(corrupt.audit(), 1e-7) << mechanism->display_name();
    } else {
      const double divergence = std::fabs(
          corrupt.reward(victim) - mechanism->compute(corrupt.tree())[victim]);
      EXPECT_GT(divergence, 0.0) << mechanism->display_name();
      EXPECT_EQ(corrupt.audit(), divergence) << mechanism->display_name();
    }
  }
}

/// A service serving `tree`, built in O(n) (a join replay of the 100k
/// chain would walk every ancestor): the tree is adopted with an empty
/// blob, so the service rebuilds its accumulators from it.
RewardService serve(const Mechanism& mechanism, const Tree& tree) {
  RewardService service(mechanism);
  service.adopt_snapshot(Tree(tree), tree.participant_count(), {});
  return service;
}

TEST(BatchKernels, BlockKernelBitEqualToPerNodeRewards) {
  // fill_rewards() prices a block in one rewards_from_aggregates() call
  // (TDRM per node from its chain state); at every block size each
  // entry must carry the bits reward(u) returns.
  for (const char* name : kFactoryMechanisms) {
    const MechanismPtr mechanism = make_mechanism(name);
    RewardService service(*mechanism);
    Rng rng(29);
    for (int event = 0; event < 9000; ++event) {
      const std::size_t n = service.tree().participant_count();
      if (n == 0 || rng.bernoulli(0.7)) {
        service.apply(JoinEvent{static_cast<NodeId>(rng.index(n + 1)),
                                rng.bernoulli(0.1) ? 0.0
                                                   : rng.uniform(0.0, 2.5)});
      } else {
        service.apply(ContributeEvent{static_cast<NodeId>(1 + rng.index(n)),
                                      rng.uniform(0.0, 1.5)});
      }
    }
    const std::size_t n = service.tree().node_count();
    RewardVector points(n, 0.0);
    for (NodeId u = 1; u < n; ++u) {
      points[u] = service.reward(u);
    }
    for (const std::size_t block : {std::size_t{1}, std::size_t{7},
                                    std::size_t{4096}, n}) {
      RewardVector filled(n, -1.0);
      for (std::size_t first = 0; first < n; first += block) {
        service.fill_rewards(
            static_cast<NodeId>(first),
            std::span<double>(filled).subspan(first,
                                              std::min(block, n - first)));
      }
      expect_bit_equal(filled, points,
                       std::string(name) + " blocks of " +
                           std::to_string(block));
    }
    std::vector<double> visited;
    service.visit_rewards([&](NodeId first, std::span<const double> block) {
      EXPECT_EQ(first, visited.size());
      EXPECT_LE(block.size(), kStreamBlock);
      visited.insert(visited.end(), block.begin(), block.end());
    });
    expect_bit_equal(visited, points, std::string(name) + " visited");
    EXPECT_EQ(service.materialized_rewards(), 0u) << name;
  }
}

TEST(BatchKernels, TypedBlockKernelsMatchThePerNodeHook) {
  // The pricing hook over one block against the same hook asked for one
  // entry at a time (what reward(u) does), on raw aggregates no tree
  // would produce, zero contributions included: bit for bit. The total
  // puts the normalized TDRM's raw rewards over budget, so its scale is
  // applied.
  Rng rng(31);
  Tree tree;
  for (NodeId u = 1; u < 5000; ++u) {
    tree.add_node(static_cast<NodeId>(rng.index(u)),
                  rng.bernoulli(0.1) ? 0.0 : rng.uniform(0.0, 4.0));
  }
  const std::size_t n = tree.node_count();
  std::vector<double> subtree(n);
  std::vector<std::uint32_t> depth(n);
  for (NodeId u = 0; u < n; ++u) {
    subtree[u] = tree.contribution(u) + rng.uniform(0.0, 100.0);
    depth[u] = static_cast<std::uint32_t>(1 + rng.index(20));
  }
  for (const char* name : kFactoryMechanisms) {
    const MechanismPtr mechanism = make_mechanism(name);
    const AggregateSupport support = mechanism->aggregate_support();
    if (!support.supported) {
      continue;  // TDRM prices from its chain state
    }
    const AggregateView view{
        .tree = tree,
        .subtree = subtree,
        .binary_depth = support.binary_depth
                            ? std::span<const std::uint32_t>(depth)
                            : std::span<const std::uint32_t>{},
        .total = 1e6};
    std::vector<double> want(n - 1);
    for (NodeId u = 1; u < n; ++u) {
      mechanism->rewards_from_aggregates(view, u,
                                         std::span<double>(&want[u - 1], 1));
    }
    std::vector<double> got(n - 1, -1.0);
    mechanism->rewards_from_aggregates(view, 1, got);
    expect_bit_equal(got, want, name);
  }
}

TEST(BatchKernels, BlockAuditBitIdenticalOnEveryShape) {
  // audit() folds the served values block by block as the sweep reaches
  // them; it must return the bits of the audit over the whole served
  // vector, max_divergence(tree, rewards()), on every shape.
  const std::vector<Shape> trees = shapes();
  for (const char* name : kFactoryMechanisms) {
    const MechanismPtr mechanism = make_mechanism(name);
    for (const Shape& shape : trees) {
      const RewardService service = serve(*mechanism, shape.tree);
      const std::string what = std::string(name) + " on " + shape.name;
      const double blocks = service.audit();
      EXPECT_LT(blocks, 1e-9) << what;
      EXPECT_EQ(service.materialized_rewards(), 0u) << what;
      const double whole =
          divergence(*mechanism, service.tree(), service.rewards());
      EXPECT_EQ(std::bit_cast<std::uint64_t>(blocks),
                std::bit_cast<std::uint64_t>(whole))
          << what << ": " << blocks << " vs " << whole;
      double total = 0.0;
      for (const double r : service.rewards()) {
        total += r;
      }
      if (mechanism->aggregate_support().total_coefficient == 0.0 &&
          dynamic_cast<const Tdrm*>(mechanism.get()) == nullptr) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(service.total_reward()),
                  std::bit_cast<std::uint64_t>(total))
            << what;
      }
    }
  }
}

}  // namespace
}  // namespace itree
