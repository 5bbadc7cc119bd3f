// A3 — deployment-path ablation: incremental reward maintenance
// (core/incremental.h, served through server/reward_service.h) against
// naive batch recomputation per event. The paper's model is inherently
// online (joins and purchases arrive one at a time); this bench measures
// what the O(depth) fast path buys a real service.
//
// Two sections:
//  1. the mechanism table (Geometric, L-Luxor, TDRM, both CDRMs,
//     split-proof) with exact batch-per-event comparison and per-event
//     latency percentiles on the incremental path;
//  2. 100k-event streams — one per incrementally-served mechanism
//     (TDRM, CDRM-1, CDRM-2, Geometric, split-proof) — where the batch
//     comparator is *sampled* (a full recompute every K events, cost
//     extrapolated) because recomputing after all 100k events would be
//     O(n^2) in total. The final reward vectors of both paths must
//     agree element-wise to 1e-9 (relative for large rewards), their
//     9-significant-digit total-reward digests must be equal, the
//     service audit must stay under 1e-9, and the final reward bits
//     must be identical under 1/2/8 pool threads, otherwise the bench
//     fails. (Bit-exact equality with batch is not expected: the
//     incremental path accumulates per-event deltas, so the last few
//     ulps legitimately differ from a fresh batch recompute.)
//
// --scale small shrinks both sections (used by scripts/perf_smoke.sh,
// including its TSan leg) while keeping every correctness gate and a
// uniform 10x speedup floor; the default full scale is what refreshes
// BENCH_a3_incremental.json.
#include "bench_harness.h"
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <iostream>

#include "core/registry.h"
#include "server/reward_service.h"
#include "tree/generators.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

using namespace itree;

struct StreamResult {
  double incremental_events_per_sec = 0.0;
  double batch_events_per_sec = 0.0;
  double audit_divergence = 0.0;
  double latency_p50_us = 0.0;
  double latency_p99_us = 0.0;
};

/// One seeded event against a service: 70% joins / 30% purchases.
/// Returns the touched node. Mirrored exactly by `replay_event` below.
NodeId service_event(RewardService& service, Rng& rng) {
  const std::size_t n = service.tree().participant_count();
  if (n == 0 || rng.bernoulli(0.7)) {
    const NodeId parent = (n == 0 || rng.bernoulli(0.1))
                              ? kRoot
                              : static_cast<NodeId>(1 + rng.index(n));
    return service.apply(JoinEvent{parent, rng.uniform(0.0, 2.0)});
  }
  const auto touched = static_cast<NodeId>(1 + rng.index(n));
  service.apply(ContributeEvent{touched, rng.uniform(0.0, 1.0)});
  return touched;
}

/// The same event stream applied to a bare tree (the batch comparator).
NodeId replay_event(Tree& tree, Rng& rng) {
  const std::size_t n = tree.participant_count();
  if (n == 0 || rng.bernoulli(0.7)) {
    const NodeId parent = (n == 0 || rng.bernoulli(0.1))
                              ? kRoot
                              : static_cast<NodeId>(1 + rng.index(n));
    return tree.add_node(parent, rng.uniform(0.0, 2.0));
  }
  const auto touched = static_cast<NodeId>(1 + rng.index(n));
  tree.set_contribution(touched,
                        tree.contribution(touched) + rng.uniform(0.0, 1.0));
  return touched;
}

/// Feeds `events` seeded events through (a) an incremental service with
/// a per-event reward query and (b) batch recomputation per event.
StreamResult run_stream(const Mechanism& mechanism, std::size_t events,
                        std::uint64_t seed) {
  using clock = std::chrono::steady_clock;
  StreamResult result;

  // (a) incremental service, timing every event individually.
  {
    Rng rng(seed);
    RewardService service(mechanism);
    double sink = 0.0;
    std::vector<double> latencies;
    latencies.reserve(events);
    const auto start = clock::now();
    for (std::size_t i = 0; i < events; ++i) {
      const auto before = clock::now();
      const NodeId touched = service_event(service, rng);
      sink += service.reward(touched);
      latencies.push_back(
          std::chrono::duration<double>(clock::now() - before).count());
    }
    const double secs =
        std::chrono::duration<double>(clock::now() - start).count();
    result.incremental_events_per_sec = static_cast<double>(events) / secs;
    result.latency_p50_us = percentile(latencies, 50) * 1e6;
    result.latency_p99_us = percentile(latencies, 99) * 1e6;
    result.audit_divergence = service.audit();
    if (sink < 0.0) {
      std::cerr << "impossible\n";
    }
  }

  // (b) naive batch: recompute all rewards after every event.
  {
    Rng rng(seed);
    Tree tree;
    double sink = 0.0;
    const auto start = clock::now();
    for (std::size_t i = 0; i < events; ++i) {
      const NodeId touched = replay_event(tree, rng);
      sink += mechanism.compute(tree)[touched];
    }
    const double secs =
        std::chrono::duration<double>(clock::now() - start).count();
    result.batch_events_per_sec = static_cast<double>(events) / secs;
    if (sink < 0.0) {
      std::cerr << "impossible\n";
    }
  }
  return result;
}

/// One large-stream demonstration per incrementally-served mechanism.
struct LargeStreamSpec {
  MechanismKind kind;
  const char* prefix;  ///< metric prefix: "tdrm", "cdrm1", ...
  double min_speedup;  ///< hard gate on the achieved ratio
};

/// The large-stream demonstration: full incremental stream vs a sampled
/// batch comparator, plus a 1/2/8-thread bit-determinism check. Fails
/// the process when any correctness gate trips; returns the speedup.
double run_large_stream(BenchHarness& harness, const LargeStreamSpec& spec,
                        std::size_t events, std::uint64_t seed) {
  using clock = std::chrono::steady_clock;
  const MechanismPtr mechanism = make_default(spec.kind);
  const std::string prefix = spec.prefix;

  // Incremental pass over the full stream.
  Rng rng(seed);
  RewardService service(*mechanism);
  double sink = 0.0;
  std::vector<double> latencies;
  latencies.reserve(events);
  const auto start = clock::now();
  for (std::size_t i = 0; i < events; ++i) {
    const auto before = clock::now();
    const NodeId touched = service_event(service, rng);
    sink += service.reward(touched);
    latencies.push_back(
        std::chrono::duration<double>(clock::now() - before).count());
  }
  const double incremental_secs =
      std::chrono::duration<double>(clock::now() - start).count();
  harness.record_events(events, incremental_secs);
  if (sink < 0.0) {
    std::cerr << "impossible\n";
  }

  // Sampled batch comparator: replay the identical stream on a bare
  // tree, run a full recompute every `stride` events, and extrapolate
  // the cost of recomputing after *every* event from those samples.
  Rng batch_rng(seed);
  Tree tree;
  const std::size_t stride = std::max<std::size_t>(events / 100, 1);
  double sampled_secs = 0.0;
  std::size_t samples = 0;
  RewardVector batch_rewards;
  for (std::size_t i = 0; i < events; ++i) {
    replay_event(tree, batch_rng);
    if ((i + 1) % stride == 0 || i + 1 == events) {
      const auto before = clock::now();
      batch_rewards = mechanism->compute(tree);
      sampled_secs +=
          std::chrono::duration<double>(clock::now() - before).count();
      ++samples;
    }
  }
  // Mean sampled recompute cost stands in for the per-event batch cost;
  // sampling is uniform over the stream, so this is an unbiased
  // estimate of the O(n^2) total divided by the event count.
  const double batch_secs_per_event =
      sampled_secs / static_cast<double>(samples);
  const double estimated_batch_secs =
      batch_secs_per_event * static_cast<double>(events);
  const double speedup = estimated_batch_secs / incremental_secs;

  // Correctness gates: element-wise agreement to 1e-9 (relative above
  // reward magnitude 1 — a 100k-delta accumulation legitimately carries
  // magnitude-proportional rounding), equal 9-digit total-reward
  // digests (the trajectory format e13 uses), tight audit.
  const RewardVector& incremental_rewards = service.rewards();
  double worst_diff = 0.0;
  double worst_scaled_diff = 0.0;
  for (std::size_t u = 0; u < incremental_rewards.size(); ++u) {
    const double diff =
        std::abs(incremental_rewards[u] - batch_rewards[u]);
    worst_diff = std::max(worst_diff, diff);
    worst_scaled_diff = std::max(
        worst_scaled_diff, diff / std::max(1.0, std::abs(batch_rewards[u])));
  }
  const std::string incremental_digest =
      compact_number(total_reward(incremental_rewards), 9);
  const std::string batch_digest =
      compact_number(total_reward(batch_rewards), 9);
  const double audit = service.audit();

  // Thread-count bit-determinism: the identical stream replayed under
  // 1/2/8 pool threads must produce bit-identical final reward vectors
  // (the serving path never runs the parallel batch kernels).
  const std::size_t previous_threads = thread_count();
  std::uint64_t thread_digests[3] = {};
  std::size_t t = 0;
  bool threads_invariant = true;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    set_thread_count(threads);
    Rng replay_rng(seed);
    RewardService replay(*mechanism);
    for (std::size_t i = 0; i < events; ++i) {
      service_event(replay, replay_rng);
    }
    thread_digests[t] = fnv1a64(hex_doubles(replay.rewards()));
    threads_invariant = threads_invariant &&
                        thread_digests[t] == thread_digests[0];
    ++t;
  }
  set_thread_count(previous_threads);

  harness.json().add_metric(prefix + "_stream_events",
                            static_cast<double>(events));
  harness.json().add_metric(prefix + "_incremental_events_per_sec",
                            static_cast<double>(events) / incremental_secs);
  harness.json().add_metric(prefix + "_estimated_batch_events_per_sec",
                            static_cast<double>(events) /
                                estimated_batch_secs);
  harness.json().add_metric(prefix + "_speedup_vs_batch", speedup);
  harness.json().add_metric(prefix + "_latency_p50_us",
                            percentile(latencies, 50) * 1e6);
  harness.json().add_metric(prefix + "_latency_p95_us",
                            percentile(latencies, 95) * 1e6);
  harness.json().add_metric(prefix + "_latency_p99_us",
                            percentile(latencies, 99) * 1e6);
  harness.json().add_metric(prefix + "_worst_batch_divergence", worst_diff);
  harness.json().add_metric(prefix + "_audit_divergence", audit);
  harness.json().add_digest(prefix + "_stream_rewards", incremental_digest);
  harness.json().add_digest(prefix + "_stream_reward_bits",
                            digest_hex(thread_digests[0]));

  std::cout << "--- " << events << "-event " << mechanism->display_name()
            << " stream (sampled batch comparator) ---\n"
            << service.tree().participant_count() << " participants after "
            << events << " events\n"
            << "incremental: "
            << compact_number(static_cast<double>(events) / incremental_secs,
                              0)
            << " ev/s (p50 "
            << compact_number(percentile(latencies, 50) * 1e6, 2)
            << " us, p95 "
            << compact_number(percentile(latencies, 95) * 1e6, 2)
            << " us, p99 "
            << compact_number(percentile(latencies, 99) * 1e6, 2)
            << " us)\nbatch estimate: "
            << compact_number(static_cast<double>(events) /
                                  estimated_batch_secs,
                              0)
            << " ev/s (" << samples << " sampled recomputes) -> speedup "
            << compact_number(speedup, 1) << "x\naudit |divergence| "
            << compact_number(audit, 12) << ", worst vs batch "
            << compact_number(worst_diff, 12) << ", total-reward digests "
            << (incremental_digest == batch_digest ? "EQUAL" : "DIFFER")
            << " (" << digest_hex(fnv1a64(incremental_digest))
            << "), 1/2/8-thread reward bits "
            << (threads_invariant ? "EQUAL" : "DIFFER") << " ("
            << digest_hex(thread_digests[0]) << ")\n\n";

  if (incremental_digest != batch_digest || worst_scaled_diff > 1e-9) {
    std::cerr << prefix
              << ": incremental and batch reward vectors diverged\n";
    std::exit(1);
  }
  if (audit > 1e-9) {
    std::cerr << prefix << ": audit divergence " << audit
              << " too large\n";
    std::exit(1);
  }
  if (!threads_invariant) {
    std::cerr << prefix << ": reward bits vary with the thread count\n";
    std::exit(1);
  }
  if (speedup < spec.min_speedup) {
    std::cerr << prefix << ": incremental speedup " << speedup
              << "x is below the " << spec.min_speedup << "x bar\n";
    std::exit(1);
  }
  return speedup;
}

}  // namespace

int main(int argc, char** argv) {
  itree::BenchHarness harness("a3_incremental", &argc, argv);
  using namespace itree;

  // --scale small|full (default full): small is the perf-smoke /
  // sanitizer configuration — same gates, shorter streams.
  bool small = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
      small = std::strcmp(argv[i + 1], "small") == 0;
      ++i;
    } else if (std::strcmp(argv[i], "--scale=small") == 0) {
      small = true;
    }
  }

  std::cout << "=== A3: incremental vs batch event processing ===\n\n"
            << "Stream of 70% joins / 30% purchases with a reward query "
               "after every event.\n\n";

  TextTable table({"mechanism", "events", "incremental ev/s", "batch ev/s",
                   "speedup", "p50 us", "p99 us", "audit |divergence|"});
  const std::vector<std::size_t> table_events =
      small ? std::vector<std::size_t>{1000, 5000}
            : std::vector<std::size_t>{2000, 20000};
  for (MechanismKind kind :
       {MechanismKind::kGeometric, MechanismKind::kLLuxor,
        MechanismKind::kTdrm, MechanismKind::kCdrmReciprocal,
        MechanismKind::kCdrmLogarithmic, MechanismKind::kSplitProof}) {
    const MechanismPtr mechanism = make_default(kind);
    for (const std::size_t events : table_events) {
      const StreamResult result = run_stream(*mechanism, events, 99);
      table.add_row({mechanism->display_name(), std::to_string(events),
                     TextTable::num(result.incremental_events_per_sec, 0),
                     TextTable::num(result.batch_events_per_sec, 0),
                     TextTable::num(result.incremental_events_per_sec /
                                        result.batch_events_per_sec,
                                    1),
                     TextTable::num(result.latency_p50_us, 2),
                     TextTable::num(result.latency_p99_us, 2),
                     TextTable::num(result.audit_divergence, 12)});
    }
  }
  std::cout << table.to_string() << '\n';

  // The CDRM-1 floor is deliberately the highest: decay = 1 aggregates
  // are a single add per ancestor, so the O(depth)-vs-O(n) gap is at
  // its widest there. Small scale flattens every floor to 10x (less
  // stream, smaller trees, sanitizer noise).
  const LargeStreamSpec specs[] = {
      {MechanismKind::kTdrm, "tdrm", 10.0},
      {MechanismKind::kCdrmReciprocal, "cdrm1", small ? 10.0 : 50.0},
      {MechanismKind::kCdrmLogarithmic, "cdrm2", 10.0},
      {MechanismKind::kGeometric, "geometric", 10.0},
      {MechanismKind::kSplitProof, "splitproof", 10.0},
  };
  const std::size_t stream_events = small ? 20000 : 100000;
  for (const LargeStreamSpec& spec : specs) {
    run_large_stream(harness, spec, stream_events, 4242);
  }

  std::cout << "Batch is O(n) per event (O(n^2) per deployment); the "
               "incremental path is O(depth).\nAudit divergence confirms "
               "the fast path pays exactly what the mechanism defines.\n";
  return harness.finish();
}
