// E13 — systems hygiene: reward computation throughput (ns per node)
// for every mechanism, plus the giant-tree snapshot sweep.
// All mechanisms run in O(n) (TDRM in O(total RCT chain length)); this
// bench pins that down across tree sizes and shapes.
//
// Flags: --threads N, --json <path>, and --scale small|full|giant
// (default full). `--scale small` caps tree sizes at 10k nodes so CI
// can run the bench as a digest-drift smoke test in seconds; the
// determinism probe and its digests are identical in every
// configuration. `--scale giant` skips the ns/node suites and
// instead sweeps SoA-arena build rate, snapshot save time, and the
// mmap-adopt load over multi-million-node trees (full-arena image
// stood up in place, split into map+header / CRC walk / adopt /
// first-mutation privatization) — the zero-rebuild recovery claim of
// docs/storage.md — asserting that the adopted tree yields rewards
// bit-identical to the in-memory source, and (at 10M nodes) that the
// load beats an add_node rebuild of the same tree by >= 3x.
// Arena allocation counts are reported so pre-sizing regressions show
// up. `--giant-nodes N` overrides the sweep's sizes (CI smoke uses a
// small N; the default sweep tops out at 10M nodes).
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "bench_harness.h"
#include "core/registry.h"
#include "storage/snapshot.h"
#include "tree/generators.h"
#include "util/strings.h"

namespace {

using namespace itree;

Tree make_tree(std::int64_t n, int shape) {
  Rng rng(42);
  switch (shape) {
    case 0:
      return random_recursive_tree(static_cast<std::size_t>(n),
                                   fixed_contribution(1.0), rng);
    case 1:
      return make_chain(static_cast<std::size_t>(n), 1.0);
    default:
      return random_recursive_tree(
          static_cast<std::size_t>(n),
          capped_contribution(pareto_contribution(0.5, 1.2), 40.0), rng);
  }
}

struct Suite {
  const char* name;
  MechanismKind kind;
  int shape;
  std::int64_t large;  // largest size; `--scale small` drops it
};

// 1M-node runs dominate the full-scale wall time; tdrm_heavy_tail stays
// at 100k because Pareto contributions expand every node into a long
// RCT chain.
constexpr Suite kSuites[] = {
    {"geometric", MechanismKind::kGeometric, 0, 1000000},
    {"l_luxor", MechanismKind::kLLuxor, 0, 1000000},
    {"l_pachira", MechanismKind::kLPachira, 0, 1000000},
    {"split_proof", MechanismKind::kSplitProof, 0, 1000000},
    {"tdrm", MechanismKind::kTdrm, 0, 1000000},
    {"tdrm_heavy_tail", MechanismKind::kTdrm, 2, 100000},
    {"tdrm_deep_chain", MechanismKind::kTdrm, 1, 1000000},
    {"cdrm_reciprocal", MechanismKind::kCdrmReciprocal, 0, 1000000},
    {"cdrm_logarithmic", MechanismKind::kCdrmLogarithmic, 0, 1000000},
};

/// Times Mechanism::compute for every suite at 100 and 10k nodes (plus
/// its large size unless `small`): repeats until kMinSeconds elapsed,
/// then records `<suite>_<n>_ns_per_node` and prints it.
void run_suites(BenchHarness& harness, bool small) {
  constexpr double kMinSeconds = 0.2;
  for (const Suite& suite : kSuites) {
    const MechanismPtr mechanism = make_default(suite.kind);
    std::vector<std::int64_t> sizes = {100, 10000};
    if (!small) {
      sizes.push_back(suite.large);
    }
    for (const std::int64_t n : sizes) {
      const Tree tree = make_tree(n, suite.shape);
      std::uint64_t runs = 0;
      [[maybe_unused]] volatile double sink = 0.0;  // keeps compute() live
      const double start = monotonic_seconds();
      double elapsed = 0.0;
      do {
        sink = mechanism->compute(tree).back();
        ++runs;
        elapsed = monotonic_seconds() - start;
      } while (elapsed < kMinSeconds);
      const double ns_per_node =
          elapsed * 1e9 / (static_cast<double>(runs) * static_cast<double>(n));
      const std::string key =
          std::string(suite.name) + "_" + std::to_string(n) + "_ns_per_node";
      harness.json().add_metric(key, ns_per_node);
      std::cout << key << ' ' << ns_per_node << " (" << runs << " runs)\n";
    }
  }
}

struct ScaleConfig {
  bool small = false;
  bool giant = false;
  /// --scale giant sweep sizes; overridden by --giant-nodes N.
  std::vector<std::int64_t> giant_sizes = {1000000, 3000000, 10000000};
};

/// Strips `--scale small|full|giant` and `--giant-nodes N` from argv.
ScaleConfig take_scale_flags(int* argc, char** argv) {
  ScaleConfig config;
  int out = 0;
  for (int in = 0; in < *argc; ++in) {
    std::string value;
    bool nodes = false;
    if (std::strcmp(argv[in], "--scale") == 0 && in + 1 < *argc) {
      value = argv[++in];
    } else if (std::strncmp(argv[in], "--scale=", 8) == 0) {
      value = argv[in] + 8;
    } else if (std::strcmp(argv[in], "--giant-nodes") == 0 &&
               in + 1 < *argc) {
      value = argv[++in];
      nodes = true;
    } else if (std::strncmp(argv[in], "--giant-nodes=", 14) == 0) {
      value = argv[in] + 14;
      nodes = true;
    } else {
      argv[out++] = argv[in];
      continue;
    }
    if (nodes) {
      char* end = nullptr;
      const long long n = std::strtoll(value.c_str(), &end, 10);
      if (value.empty() || end == nullptr || *end != '\0' || n <= 0) {
        std::cerr << "--giant-nodes needs a positive integer, got '" << value
                  << "'\n";
        std::exit(2);
      }
      config.giant_sizes = {static_cast<std::int64_t>(n)};
    } else if (value == "small") {
      config.small = true;
    } else if (value == "giant") {
      config.giant = true;
    } else if (value != "full") {
      std::cerr << "--scale must be small, full or giant, got '" << value
                << "'\n";
      std::exit(2);
    }
  }
  *argc = out;
  return config;
}

/// The giant-tree sweep: per size, builds an SoA arena tree, writes its
/// snapshot image, then times the mmap-adopt load (split into
/// map+header, CRC walk, in-place adoption, and first-mutation
/// privatization) against the baseline a recovery without an image
/// pays: one Tree::add_node per participant over the source's parent
/// and contribution columns. Gates on the adopted tree yielding
/// geometric rewards and a node count bit-identical to the source (plus,
/// at >= 10M nodes, the load beating the add_node rebuild by >= 3x).
/// Returns the number of divergences/gate failures (0 = pass).
int run_giant_sweep(itree::BenchHarness& harness,
                    const std::vector<std::int64_t>& sizes) {
  namespace fs = std::filesystem;
  const MechanismPtr mechanism = make_default(MechanismKind::kGeometric);
  const fs::path dir = fs::temp_directory_path() / "itree_e13_giant";
  fs::remove_all(dir);
  fs::create_directories(dir);
  int divergences = 0;
  for (const std::int64_t n : sizes) {
    const std::string tag = "giant_" + std::to_string(n);
    double t0 = monotonic_seconds();
    Tree tree = make_tree(n, 0);
    const double build_seconds = monotonic_seconds() - t0;
    // Generator-hinted pre-sizing: one reservation per arena column.
    const double build_allocations =
        static_cast<double>(tree.allocation_count());

    storage::SnapshotData data;
    data.last_seq = static_cast<std::uint64_t>(n);
    data.mechanism = mechanism->display_name();
    storage::CampaignSnapshot snap;
    snap.events_applied = static_cast<std::uint64_t>(n);
    snap.tree = std::move(tree);
    data.campaigns.push_back(std::move(snap));
    const Tree& source = data.campaigns[0].tree;

    // Baseline: the tree rebuilt one add_node per participant (pre-sized,
    // so the baseline pays no reallocation).
    t0 = monotonic_seconds();
    Tree rebuilt;
    rebuilt.reserve(source.node_count());
    for (NodeId u = 1; u < source.node_count(); ++u) {
      rebuilt.add_node(source.parent(u), source.contribution(u));
    }
    const double rebuild_seconds = monotonic_seconds() - t0;

    t0 = monotonic_seconds();
    storage::save_snapshot(dir.string(), data);
    const double save_seconds = monotonic_seconds() - t0;
    const fs::path image = dir / storage::snapshot_name(data.last_seq);
    const double image_bytes = static_cast<double>(fs::file_size(image));

    t0 = monotonic_seconds();
    storage::MappedSnapshot mapped(image.string());
    const double map_seconds = monotonic_seconds() - t0;
    t0 = monotonic_seconds();
    mapped.verify();
    const double crc_seconds = monotonic_seconds() - t0;
    t0 = monotonic_seconds();
    storage::SnapshotData adopted = mapped.materialize();
    const double adopt_seconds = monotonic_seconds() - t0;
    const double load_seconds = map_seconds + crc_seconds + adopt_seconds;
    const double adopt_borrowed = static_cast<double>(
        adopted.campaigns[0].tree.borrowed_column_count());
    const double adopt_allocations = static_cast<double>(
        adopted.campaigns[0].tree.allocation_count());

    const std::string reward_source = itree::compact_number(
        itree::total_reward(mechanism->compute(source)), 9);
    const std::string reward_v5 = itree::compact_number(
        itree::total_reward(mechanism->compute(adopted.campaigns[0].tree)),
        9);

    // First-mutation privatization: one append forces every column the
    // mutation touches out of the mapping into owned memory.
    t0 = monotonic_seconds();
    adopted.campaigns[0].tree.add_node(kRoot, 0.0);
    const double privatize_seconds = monotonic_seconds() - t0;
    adopted.campaigns[0].tree.remove_last_node();
    const double privatize_allocations =
        static_cast<double>(adopted.campaigns[0].tree.allocation_count());

    if (reward_v5 != reward_source ||
        adopted.campaigns[0].tree.node_count() != source.node_count()) {
      std::cerr << "e13 giant: mmap-adopted tree diverges from the source "
                   "tree at n="
                << n << '\n';
      ++divergences;
    }
    // The headline perf contract (docs/perf.md): at the 10M-node scale
    // the zero-rebuild adoption must beat the add_node rebuild by >= 3x.
    // Smaller sizes are reported but not gated — below ~10M the rebuild
    // is fast enough that the fixed CRC pass compresses the ratio into
    // timing-noise territory on a 1-core box.
    if (n >= 10000000 && load_seconds * 3.0 > rebuild_seconds) {
      std::cerr << "e13 giant: mmap-adopt gate failed at n=" << n << ": "
                << load_seconds << "s vs add_node rebuild " << rebuild_seconds
                << "s (" << rebuild_seconds / load_seconds << "x < 3x)\n";
      ++divergences;
    }
    harness.json().add_digest(tag + "_v5_total_reward", reward_v5);
    harness.json().add_metric(tag + "_build_nodes_per_sec",
                              static_cast<double>(n) / build_seconds);
    harness.json().add_metric(tag + "_build_allocations", build_allocations);
    harness.json().add_metric(tag + "_rebuild_add_node_seconds",
                              rebuild_seconds);
    harness.json().add_metric(tag + "_image_v5_bytes", image_bytes);
    harness.json().add_metric(tag + "_save_v5_seconds", save_seconds);
    harness.json().add_metric(tag + "_load_v5_map_seconds", map_seconds);
    harness.json().add_metric(tag + "_load_v5_crc_seconds", crc_seconds);
    harness.json().add_metric(tag + "_load_v5_adopt_seconds", adopt_seconds);
    harness.json().add_metric(tag + "_load_v5_seconds", load_seconds);
    harness.json().add_metric(tag + "_v5_speedup",
                              rebuild_seconds / load_seconds);
    harness.json().add_metric(tag + "_v5_privatize_seconds",
                              privatize_seconds);
    harness.json().add_metric(tag + "_adopt_borrowed_columns",
                              adopt_borrowed);
    harness.json().add_metric(tag + "_adopt_allocations", adopt_allocations);
    harness.json().add_metric(tag + "_privatize_allocations",
                              privatize_allocations);
    std::cout << tag << ": build " << build_seconds << "s, add_node rebuild "
              << rebuild_seconds << "s, save " << save_seconds
              << "s, load mmap-adopt " << load_seconds << "s ("
              << rebuild_seconds / load_seconds << "x; map " << map_seconds
              << " + crc " << crc_seconds << " + adopt " << adopt_seconds
              << "), privatize " << privatize_seconds << "s\n";
    fs::remove(image);
  }
  fs::remove_all(dir);
  return divergences;
}

}  // namespace

int main(int argc, char** argv) {
  itree::BenchHarness harness("e13_scalability", &argc, argv);
  const ScaleConfig scale = take_scale_flags(&argc, argv);
  if (argc > 1) {
    std::cerr << "unknown flag '" << argv[1] << "'\n";
    return 2;
  }
  int divergences = 0;
  if (scale.giant) {
    divergences = run_giant_sweep(harness, scale.giant_sizes);
  } else {
    run_suites(harness, scale.small);
  }
  // Determinism probe for the trajectory: total reward of every
  // mechanism on a fixed 10k-node tree must never drift across PRs.
  const Tree probe = make_tree(10000, 0);
  for (const itree::MechanismPtr& mechanism :
       itree::all_feasible_mechanisms()) {
    harness.json().add_digest(
        mechanism->display_name(),
        itree::compact_number(
            itree::total_reward(mechanism->compute(probe)), 9));
  }
  const int rc = harness.finish();
  return divergences > 0 ? 1 : rc;
}
