// E14 — serving-path throughput: the epoll daemon under loopback load.
//
// Boots an in-process Server (ephemeral port) hosting C campaigns and
// drives it through net::LoadDriver with one connection per campaign —
// the deterministic mode (src/net/load_driver.h): each campaign sees
// exactly the event stream of its connection's Rng fork, so the final
// reward digests are identical at every --threads/--reactors/--batch/
// --pipeline setting, and what this bench adds to the BENCH_*
// trajectory is the serving overhead (requests/s and latency
// percentiles) rather than mechanism arithmetic.
//
// Flags: --threads N (campaign sharding inside a 1-reactor server),
// --reactors N (shared-nothing SO_REUSEPORT loops), --batch B and
// --pipeline W (the driver's streamed style), --open-loop RATE (after
// the measured closed-loop pass, a second streamed pass on a fixed
// arrival schedule of RATE requests/s total, latency measured from
// each request's scheduled arrival), --json <path>, --campaigns C
// (default 4), --requests R per campaign (default 4000), --mechanism
// NAME (default geometric; any make_mechanism name, e.g. l-luxor,
// l-pachira, split-proof, tdrm, cdrm1, cdrm2). Every mechanism except
// L-Pachira exercises an incremental serving path; the audit gate then
// also covers incremental-vs-batch divergence, and
// reward_events_per_sec reports the join/contribute rate the daemon
// sustained.
//
// --read-scaling {0|1} (default 1) appends a replication read-scaling
// section: a fresh durable primary plus two WAL-shipped in-memory
// replicas, a saturating background writer, and the same reward-query
// load measured twice — all readers on the primary, then readers
// spread across primary + replicas. Runs on its own servers after the
// main pass, so the final_rewards digest is unaffected.
//
// --shards N (default 0 = off) appends a router write-scaling section:
// the identical per-campaign EVENT_BATCH write streams are measured
// against a single server directly and against an itree-router
// topology of N shard servers (campaign mod N), and the final reward
// vectors must be bit-identical both ways. On multi-core hosts the
// speedup is the point; on single-core CI the digest equality plus the
// routed p50 overhead is. Own servers, after the main pass — the
// final_rewards digest is unaffected.
#include <atomic>
#include <chrono>
#include <filesystem>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "bench_harness.h"
#include "core/factory.h"
#include "net/client.h"
#include "net/load_driver.h"
#include "net/server.h"
#include "replication/replica.h"
#include "router/router.h"
#include "util/args.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/strings.h"

namespace {

using namespace itree;

/// Read-scaling section: does adding WAL-shipped read replicas buy
/// reward-query throughput while the primary absorbs a write-heavy
/// stream? A durable primary is seeded with a fixed population, two
/// in-memory replicas bootstrap from it, and a closed-loop EVENT_BATCH
/// writer runs throughout; the identical reward-query load is then
/// measured with every reader on the primary (baseline) and with the
/// readers spread across primary + replicas. Replica lag is sampled in
/// records during the replicated pass. Finishes with a bit-exactness
/// check: after the writer stops and the replicas drain, every
/// campaign's reward vector must match the primary's exactly.
bool run_read_scaling(itree::BenchHarness& harness,
                      const Mechanism& mechanism,
                      const std::string& mechanism_name,
                      std::uint32_t campaigns,
                      std::uint64_t queries_per_reader,
                      std::size_t reactors) {
  namespace fs = std::filesystem;
  constexpr std::uint64_t kSeedJoins = 400;  ///< participants/campaign
  constexpr std::size_t kReaders = 2;  ///< one per replica when spread
  const fs::path dir =
      fs::temp_directory_path() / "itree_e14_read_scaling";
  std::error_code ec;
  fs::remove_all(dir, ec);

  net::ServerConfig primary_config;
  primary_config.campaigns = campaigns;
  primary_config.reactors = reactors;
  primary_config.storage.data_dir = dir.string();
  primary_config.storage.mechanism_name = mechanism_name;
  // Strict durability is the deployment where read offload matters
  // most: every commit fsyncs, so the primary's write path stalls on
  // the disk while replica reads keep flowing.
  primary_config.storage.fsync = storage::FsyncPolicy::kAlways;
  net::Server primary(mechanism, primary_config);
  std::thread primary_loop([&primary] { primary.run(); });

  // Seed the population the readers will query. The writer only
  // contributes, so the id range stays valid on every endpoint.
  net::Client seeder("127.0.0.1", primary.port());
  {
    Rng rng(2026);
    for (std::uint32_t c = 0; c < campaigns; ++c) {
      std::vector<net::BatchEvent> batch;
      for (std::uint64_t j = 0; j < kSeedJoins; ++j) {
        net::BatchEvent event;
        event.kind = net::BatchEvent::kJoin;
        event.node = (j == 0 || rng.bernoulli(0.2))
                         ? kRoot
                         : static_cast<NodeId>(1 + rng.index(j));
        event.amount = rng.uniform(0.0, 3.0);
        batch.push_back(event);
        if (batch.size() == 64) {
          seeder.send_events(c, batch);
          batch.clear();
        }
      }
      if (!batch.empty()) {
        seeder.send_events(c, batch);
      }
    }
  }
  const std::uint64_t seeded_seq = seeder.server_stats().committed_seq;

  struct Replica {
    std::unique_ptr<net::Server> server;
    std::unique_ptr<replication::ReplicaSync> sync;
    std::thread loop;
  };
  replication::ReplicaOptions repl_options;
  repl_options.primary_port = primary.port();
  std::vector<std::unique_ptr<Replica>> replicas;
  for (int r = 0; r < 2; ++r) {
    auto replica = std::make_unique<Replica>();
    net::ServerConfig config;
    config.campaigns = campaigns;
    config.reactors = 1;
    replica->server = std::make_unique<net::Server>(mechanism, config);
    replica->sync = std::make_unique<replication::ReplicaSync>(
        mechanism, *replica->server, repl_options);
    replica->server->attach_replica(replica->sync.get(),
                                    repl_options.serve_stale_seconds);
    replica->loop =
        std::thread([server = replica->server.get()] { server->run(); });
    replicas.push_back(std::move(replica));
  }
  const auto wait_applied = [&](std::uint64_t seq) {
    for (const auto& replica : replicas) {
      while (replica->sync->applied_floor() < seq) {
        if (replica->sync->failed()) {
          std::cerr << "read-scaling: replica failed: "
                    << replica->sync->last_error() << '\n';
          return false;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    return true;
  };
  bool healthy = wait_applied(seeded_seq);

  // Open-loop writer at a fixed offered rate — both measured passes
  // see the *same* primary write load (and the replicas apply the same
  // stream in both), so the passes differ only in where reads land.
  // Each EVENT_BATCH commit fsyncs (kAlways), stalling the primary's
  // write path the way a strict-durability deployment does.
  constexpr double kWriteBatchesPerSecond = 150.0;
  std::atomic<bool> stop_writer{false};
  std::thread writer([&] {
    net::Client client("127.0.0.1", primary.port());
    Rng rng(7);
    std::vector<net::BatchEvent> batch(64);
    const double start = monotonic_seconds();
    for (std::uint64_t i = 0;
         !stop_writer.load(std::memory_order_relaxed); ++i) {
      const double scheduled =
          start + static_cast<double>(i) / kWriteBatchesPerSecond;
      const double now = monotonic_seconds();
      if (now < scheduled) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(scheduled - now));
      }
      const auto c = static_cast<std::uint32_t>(rng.index(campaigns));
      for (net::BatchEvent& event : batch) {
        event.kind = net::BatchEvent::kContribute;
        event.node = static_cast<NodeId>(1 + rng.index(kSeedJoins));
        event.amount = rng.uniform(0.0, 1.0);
      }
      client.send_events(c, batch);
    }
  });

  const auto run_pass = [&](const std::vector<std::uint16_t>& ports) {
    std::vector<std::thread> threads;
    const double start = monotonic_seconds();
    for (std::size_t t = 0; t < ports.size(); ++t) {
      threads.emplace_back([&, t] {
        net::Client client("127.0.0.1", ports[t]);
        Rng rng(100 + static_cast<std::uint64_t>(t));
        for (std::uint64_t q = 0; q < queries_per_reader; ++q) {
          const auto c = static_cast<std::uint32_t>(rng.index(campaigns));
          client.reward(c, static_cast<NodeId>(1 + rng.index(kSeedJoins)));
        }
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
    const double elapsed = monotonic_seconds() - start;
    return static_cast<double>(queries_per_reader * ports.size()) /
           elapsed;
  };

  double primary_rps = 0.0;
  double replicated_rps = 0.0;
  std::vector<double> lag_samples;
  if (healthy) {
    primary_rps = run_pass(std::vector<std::uint16_t>(
        kReaders, primary.port()));

    // Replicated topology: the primary keeps the writes, the replicas
    // take all the reads (one reader pinned per endpoint type is the
    // classic read-offload deployment).
    std::vector<std::uint16_t> spread;
    for (std::size_t t = 0; t < kReaders; ++t) {
      spread.push_back(
          replicas[t % replicas.size()]->server->port());
    }
    std::atomic<bool> stop_sampler{false};
    std::thread sampler([&] {
      do {
        for (const auto& replica : replicas) {
          const std::uint64_t shipped = replica->sync->primary_seq();
          const std::uint64_t applied = replica->sync->applied_floor();
          lag_samples.push_back(
              shipped > applied
                  ? static_cast<double>(shipped - applied)
                  : 0.0);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      } while (!stop_sampler.load(std::memory_order_relaxed));
    });
    replicated_rps = run_pass(spread);
    stop_sampler.store(true, std::memory_order_relaxed);
    sampler.join();
  }

  stop_writer.store(true, std::memory_order_relaxed);
  writer.join();

  // Convergence + bit-exactness: once the replicas drain the writer's
  // tail, their reward vectors must equal the primary's exactly.
  bool identical = healthy;
  if (healthy) {
    healthy = wait_applied(seeder.server_stats().committed_seq);
    identical = healthy;
    for (std::uint32_t c = 0; identical && c < campaigns; ++c) {
      const std::vector<double> expect = seeder.rewards(c);
      for (const auto& replica : replicas) {
        net::Client reader("127.0.0.1", replica->server->port());
        if (reader.rewards(c) != expect) {
          std::cerr << "read-scaling: replica rewards diverged in "
                       "campaign "
                    << c << '\n';
          identical = false;
          break;
        }
      }
    }
  }

  for (const auto& replica : replicas) {
    replica->server->request_shutdown();
  }
  for (const auto& replica : replicas) {
    replica->loop.join();
  }
  primary.request_shutdown();
  primary_loop.join();
  fs::remove_all(dir, ec);
  if (!healthy || !identical) {
    return false;
  }

  const double lag_p99 = percentile(lag_samples, 99);
  harness.json().add_metric("read_scaling_primary_rps", primary_rps);
  harness.json().add_metric("read_scaling_replicated_rps",
                            replicated_rps);
  harness.json().add_metric("read_scaling_speedup",
                            replicated_rps / primary_rps);
  harness.json().add_metric("read_scaling_replica_lag_p99_records",
                            lag_p99);
  std::cout << "read scaling (" << kReaders
            << " readers, fsync-always primary under "
            << compact_number(kWriteBatchesPerSecond * 64.0, 0)
            << " writes/s): primary-only "
            << compact_number(primary_rps, 0)
            << " reward queries/s; primary + 2 replicas "
            << compact_number(replicated_rps, 0) << " queries/s ("
            << compact_number(replicated_rps / primary_rps, 2)
            << "x); replica lag p99 " << compact_number(lag_p99, 0)
            << " records\n";
  return true;
}

/// Router write-scaling section: the same per-campaign write streams
/// measured against one server directly and against an in-process
/// itree-router fronting `shards` shard servers. The digests must be
/// bit-identical; the throughput ratio is the scale-out claim.
bool run_write_scaling(itree::BenchHarness& harness,
                       const Mechanism& mechanism,
                       std::uint32_t campaigns,
                       std::uint64_t events_per_campaign,
                       std::size_t shards) {
  // Writes are an order of magnitude cheaper than the mixed main-pass
  // load, so the stream is widened to keep each measured pass long
  // enough (thousands of frames) for stable percentiles on busy hosts.
  // Closed-loop 64-event EVENT_BATCH frames, latency send -> response;
  // the driver verifies every predicted id, so a misrouted frame fails
  // loudly instead of skewing the digest.
  net::LoadDriver writer;
  writer.connections = campaigns;
  writer.campaigns = campaigns;
  writer.requests = events_per_campaign * 8;
  writer.mix = net::RequestMix::writes_only(0.35);
  writer.batch = 64;
  struct PassResult {
    double events_per_sec = 0.0;
    double p50_ms = 0.0;
    std::vector<std::vector<double>> rewards;
    std::string error;
  };
  const auto run_pass = [&](std::uint16_t port) {
    writer.port = port;
    const net::LoadReport report = writer.run(Rng(777));
    PassResult pass;
    pass.error = report.error;
    if (!pass.error.empty()) {
      return pass;
    }
    pass.events_per_sec =
        static_cast<double>(report.events) / report.wall_seconds;
    pass.p50_ms = percentile(report.latencies_seconds, 50) * 1e3;
    net::Client verifier("127.0.0.1", port);
    for (std::uint32_t c = 0; c < campaigns; ++c) {
      pass.rewards.push_back(verifier.rewards(c));
    }
    harness.record_events(report.events, report.wall_seconds);
    return pass;
  };

  // Direct pass: one server, one reactor — the pre-sharding deployment.
  net::ServerConfig direct_config;
  direct_config.campaigns = campaigns;
  net::Server direct(mechanism, direct_config);
  std::thread direct_loop([&direct] { direct.run(); });
  const PassResult single = run_pass(direct.port());
  {
    net::Client stop("127.0.0.1", direct.port());
    stop.shutdown_server();
  }
  direct_loop.join();

  // Routed pass: `shards` single-reactor shard servers (each hosting
  // the FULL campaign count, as the supervisor starts them) behind a
  // router; campaign c lands on shard (c mod shards).
  std::vector<std::unique_ptr<net::Server>> workers;
  std::vector<std::thread> worker_loops;
  router::RouterConfig router_config;
  router_config.campaigns = campaigns;
  for (std::size_t s = 0; s < shards; ++s) {
    net::ServerConfig config;
    config.campaigns = campaigns;
    workers.push_back(std::make_unique<net::Server>(mechanism, config));
    worker_loops.emplace_back(
        [server = workers.back().get()] { server->run(); });
    router_config.shards.push_back(
        "127.0.0.1:" + std::to_string(workers.back()->port()));
  }
  router::Router router(router_config);
  std::thread router_loop([&router] { router.run(); });
  for (int attempt = 0; attempt < 1000; ++attempt) {
    try {
      net::Client probe("127.0.0.1", router.port());
      const net::ShardMapBody map = probe.shard_map();
      std::size_t healthy = 0;
      for (const net::ShardMapEntry& entry : map.shards) {
        healthy += entry.healthy;
      }
      if (healthy == shards) {
        break;
      }
    } catch (const std::exception&) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const PassResult routed = run_pass(router.port());
  router.request_shutdown();
  router_loop.join();
  for (const auto& worker : workers) {
    worker->request_shutdown();
  }
  for (std::thread& loop : worker_loops) {
    loop.join();
  }

  for (const std::string& error : {single.error, routed.error}) {
    if (!error.empty()) {
      std::cerr << "write scaling: connection failed: " << error << '\n';
      return false;
    }
  }
  if (routed.rewards != single.rewards) {
    std::cerr << "write scaling: routed rewards diverged from the "
                 "single-process run\n";
    return false;
  }
  const double speedup = routed.events_per_sec / single.events_per_sec;
  const double overhead = single.p50_ms > 0.0
                              ? routed.p50_ms / single.p50_ms - 1.0
                              : 0.0;
  harness.json().add_metric("write_scaling_shards",
                            static_cast<double>(shards));
  harness.json().add_metric("write_scaling_direct_eps",
                            single.events_per_sec);
  harness.json().add_metric("write_scaling_routed_eps",
                            routed.events_per_sec);
  harness.json().add_metric("write_scaling_speedup", speedup);
  harness.json().add_metric("write_scaling_direct_p50_ms", single.p50_ms);
  harness.json().add_metric("write_scaling_routed_p50_ms", routed.p50_ms);
  harness.json().add_metric("write_scaling_routed_p50_overhead",
                            overhead);
  std::cout << "write scaling (" << shards
            << " shard server(s) behind the router, EVENT_BATCH x64): "
            << "direct " << compact_number(single.events_per_sec, 0)
            << " events/s, routed "
            << compact_number(routed.events_per_sec, 0) << " events/s ("
            << compact_number(speedup, 2) << "x); rewards bit-identical; "
            << "routed p50 " << compact_number(routed.p50_ms, 3)
            << " ms vs direct " << compact_number(single.p50_ms, 3)
            << " ms (" << compact_number(overhead * 100.0, 1)
            << "% overhead)\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  itree::BenchHarness harness("e14_service_throughput", &argc, argv);
  ArgParser args;
  args.add_flag("--campaigns", "campaigns, one connection each (default 4)");
  args.add_flag("--requests", "requests per campaign (default 4000)");
  args.add_flag("--reactors", "server reactor loops (default 1)");
  args.add_flag("--batch", "events per EVENT_BATCH frame (default 1)");
  args.add_flag("--pipeline", "frames in flight per connection (default 1)");
  args.add_flag("--open-loop",
                "offered requests/s of an open-loop second pass "
                "(default 0 = none)");
  args.add_flag("--mechanism", "make_mechanism name (default geometric)");
  args.add_flag("--read-scaling",
                "0|1: append the read-scaling section (default 1)");
  args.add_flag("--shards",
                "append the router write-scaling section over N shards "
                "(default 0 = off)");
  net::LoadDriver driver;
  std::size_t reactors = 1;
  double open_loop_rate = 0.0;
  std::string mechanism_name;
  bool read_scaling = true;
  std::size_t shards = 0;
  MechanismPtr mechanism;
  try {
    if (!args.parse(argc, argv)) {
      throw std::invalid_argument(args.error());
    }
    // One connection, hence one driver thread, per campaign.
    driver.campaigns = static_cast<std::uint32_t>(
        args.get_int_in("--campaigns", 4, 1, kMaxThreadCount));
    driver.connections = driver.campaigns;
    driver.requests = static_cast<std::uint64_t>(
        args.get_int_in("--requests", 4000, 1, net::kMaxRequests));
    reactors = static_cast<std::size_t>(
        args.get_int_in("--reactors", 1, 1, kMaxThreadCount));
    driver.batch = static_cast<std::uint32_t>(
        args.get_int_in("--batch", 1, 1, net::kMaxBatchEvents));
    driver.pipeline = static_cast<std::uint32_t>(
        args.get_int_in("--pipeline", 1, 1, net::kMaxPipeline));
    open_loop_rate =
        args.get_double_in("--open-loop", 0.0, 0.0, kMaxRealFlag);
    mechanism_name = args.get_or("--mechanism", "geometric");
    read_scaling = args.get_int_or("--read-scaling", 1) != 0;
    // Campaign c lands on shard c mod N: a shard past the campaign
    // count would own none.
    shards = static_cast<std::size_t>(
        args.get_int_in("--shards", 0, 0, driver.campaigns));
    mechanism = make_mechanism(mechanism_name);
  } catch (const std::invalid_argument& error) {
    std::cerr << error.what() << '\n';
    return 2;
  }
  const std::uint32_t campaigns = driver.campaigns;
  const std::uint64_t requests = driver.requests;

  harness.json().add_digest("mechanism", mechanism->display_name());
  net::ServerConfig config;
  config.campaigns = campaigns;
  config.reactors = reactors;
  net::Server server(*mechanism, config);
  std::thread loop([&server] { server.run(); });
  const auto failed = [&](const std::string& error) {
    std::cerr << "connection failed: " << error << '\n';
    server.request_shutdown();
    loop.join();
    return 1;
  };

  driver.port = server.port();
  driver.mix = net::RequestMix::service();
  const Rng base(42);
  const net::LoadReport pass = driver.run(base);
  if (!pass.error.empty()) {
    return failed(pass.error);
  }
  const double elapsed = pass.wall_seconds;
  const std::vector<double>& latencies = pass.latencies_seconds;
  // finish() derives the per-mechanism reward_events_per_sec metric.
  harness.record_events(pass.events, elapsed);
  const auto total = static_cast<double>(campaigns) *
                     static_cast<double>(requests);
  harness.json().add_metric("reactors", static_cast<double>(reactors));
  harness.json().add_metric("batch", static_cast<double>(driver.batch));
  harness.json().add_metric("pipeline",
                            static_cast<double>(driver.pipeline));
  harness.json().add_metric("requests", total);
  harness.json().add_metric("frames", static_cast<double>(pass.frames));
  harness.json().add_metric("throughput_rps", total / elapsed);
  harness.json().add_metric("latency_p50_ms",
                            percentile(latencies, 50) * 1e3);
  harness.json().add_metric("latency_p95_ms",
                            percentile(latencies, 95) * 1e3);
  harness.json().add_metric("latency_p99_ms",
                            percentile(latencies, 99) * 1e3);

  std::cout << "=== E14: reward-service serving throughput ===\n"
            << campaigns << " campaign(s) x " << requests
            << " requests, one connection per campaign (deterministic "
               "mode), "
            << reactors << " reactor(s), batch " << driver.batch
            << ", pipeline " << driver.pipeline << '\n'
            << compact_number(total, 0) << " requests ("
            << pass.frames << " frames) in " << compact_number(elapsed, 3)
            << " s -> " << compact_number(total / elapsed, 0)
            << " req/s (" << mechanism_name << ": "
            << compact_number(static_cast<double>(pass.events) / elapsed, 0)
            << " reward events/s)\n"
            << "closed-loop latency ms/frame: p50 "
            << compact_number(percentile(latencies, 50) * 1e3, 3)
            << "  p95 "
            << compact_number(percentile(latencies, 95) * 1e3, 3)
            << "  p99 "
            << compact_number(percentile(latencies, 99) * 1e3, 3)
            << '\n';

  // Post-run verification + the thread-count-invariant digests.
  net::Client verifier("127.0.0.1", server.port());
  double worst_audit = 0.0;
  std::string all_rendered;
  for (std::uint32_t c = 0; c < campaigns; ++c) {
    worst_audit = std::max(worst_audit, verifier.audit(c));
    all_rendered += hex_doubles(verifier.rewards(c));
    all_rendered += ';';
  }
  harness.json().add_metric("worst_audit_divergence", worst_audit);
  harness.json().add_digest("final_rewards", all_rendered);
  std::cout << "worst audit divergence "
            << compact_number(worst_audit, 12) << ", rewards digest "
            << digest_hex(fnv1a64(all_rendered)) << '\n';

  if (open_loop_rate > 0.0) {
    // Open-loop pass: fixed arrival schedule, latency charged from
    // each request's *scheduled* arrival — under overload this is the
    // honest number (closed-loop self-throttles and hides the queue).
    // Runs after the digest capture above, so goldens are unaffected.
    // The driver seeds its id prediction from the live campaign size,
    // so this pass resumes where the main pass left off.
    net::LoadDriver open = driver;
    open.rate = open_loop_rate;
    open.first_stream = campaigns;
    const net::LoadReport open_pass = open.run(base);
    if (!open_pass.error.empty()) {
      return failed(open_pass.error);
    }
    const double open_elapsed = open_pass.wall_seconds;
    const std::vector<double>& open_latencies = open_pass.latencies_seconds;
    harness.record_events(open_pass.events, open_elapsed);
    harness.json().add_metric("open_loop_offered_rps", open_loop_rate);
    harness.json().add_metric("open_loop_achieved_rps",
                              total / open_elapsed);
    harness.json().add_metric("open_latency_p50_ms",
                              percentile(open_latencies, 50) * 1e3);
    harness.json().add_metric("open_latency_p95_ms",
                              percentile(open_latencies, 95) * 1e3);
    harness.json().add_metric("open_latency_p99_ms",
                              percentile(open_latencies, 99) * 1e3);
    std::cout << "open-loop @ " << compact_number(open_loop_rate, 0)
              << " req/s offered, "
              << compact_number(total / open_elapsed, 0)
              << " achieved; latency ms from scheduled arrival: p50 "
              << compact_number(percentile(open_latencies, 50) * 1e3, 3)
              << "  p95 "
              << compact_number(percentile(open_latencies, 95) * 1e3, 3)
              << "  p99 "
              << compact_number(percentile(open_latencies, 99) * 1e3, 3)
              << '\n';
  }

  verifier.shutdown_server();
  loop.join();
  if (worst_audit >= 1e-9) {
    std::cerr << "audit divergence " << worst_audit << " too large\n";
    return 1;
  }

  if (read_scaling) {
    // Own servers, own data dir — the digests above are untouched.
    if (!run_read_scaling(harness, *mechanism, mechanism_name, campaigns,
                          requests, reactors)) {
      return 1;
    }
  }
  if (shards > 0) {
    // Own servers again; digest equality with the direct run is the
    // hard gate, throughput/latency ratios are the reported claim.
    if (!run_write_scaling(harness, *mechanism, campaigns, requests,
                           shards)) {
      return 1;
    }
  }
  return harness.finish();
}
