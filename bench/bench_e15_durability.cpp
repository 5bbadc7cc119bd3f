// E15 — durability cost and recovery speed of the storage engine.
//
// Two questions a deployment has to answer before turning on
// --data-dir:
//
//   1. What does each fsync policy cost on the serving path? Boots an
//      in-process Server per policy (never / interval / always) over a
//      fresh data directory and drives it with net::LoadDriver's
//      writes-only ingest mix, one connection per campaign (the
//      deterministic mode: identical event streams per campaign across
//      policies, so the recovered reward digests must match
//      bit-for-bit — asserted).
//   2. How fast is restart? Times `recover_campaigns` over each
//      policy's directory (drained: snapshot + empty tail) and then
//      over a WAL-only vs snapshot-compacted directory of the same
//      history, showing the O(all events) -> O(snapshot + tail) drop.
//
// Flags: --threads N, --json <path>, --campaigns C (default 3),
// --requests R per campaign (default 3000).
#include <filesystem>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_harness.h"
#include "core/registry.h"
#include "net/client.h"
#include "net/load_driver.h"
#include "net/server.h"
#include "storage/storage.h"
#include "util/args.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/strings.h"

namespace {

using namespace itree;
namespace fs = std::filesystem;

/// Times a read-only recovery pass and renders the recovered rewards.
double timed_recover(const Mechanism& mechanism, std::size_t campaigns,
                     const std::string& dir, std::string* rendered,
                     storage::RecoveryReport* report) {
  const double start = monotonic_seconds();
  const storage::RecoveryResult result =
      storage::recover_campaigns(mechanism, campaigns, dir);
  const double elapsed = monotonic_seconds() - start;
  rendered->clear();
  for (const auto& campaign : result.campaigns) {
    *rendered += hex_doubles(campaign->service().rewards());
    *rendered += ';';
  }
  *report = result.report;
  return elapsed;
}

}  // namespace

int main(int argc, char** argv) {
  itree::BenchHarness harness("e15_durability", &argc, argv);
  ArgParser args;
  args.add_flag("--campaigns", "campaigns, one connection each (default 3)");
  args.add_flag("--requests", "ingest requests per campaign (default 3000)");
  net::LoadDriver driver;
  driver.mix = net::RequestMix::writes_only(0.6);
  try {
    if (!args.parse(argc, argv)) {
      throw std::invalid_argument(args.error());
    }
    // One connection, hence one driver thread, per campaign.
    driver.campaigns = static_cast<std::uint32_t>(
        args.get_int_in("--campaigns", 3, 1, kMaxThreadCount));
    driver.requests = static_cast<std::uint64_t>(
        args.get_int_in("--requests", 3000, 1, net::kMaxRequests));
  } catch (const std::invalid_argument& error) {
    std::cerr << error.what() << '\n';
    return 2;
  }
  driver.connections = driver.campaigns;
  const std::uint32_t campaigns = driver.campaigns;
  const std::uint64_t requests = driver.requests;

  const MechanismPtr mechanism = make_default(MechanismKind::kGeometric);
  const Rng base(42);

  std::cout << "=== E15: storage durability cost and recovery ===\n"
            << campaigns << " campaign(s) x " << requests
            << " ingest requests per fsync policy\n";

  // --- Part 1: serving-path cost per fsync policy -------------------
  std::string reference_rendered;
  for (const storage::FsyncPolicy policy :
       {storage::FsyncPolicy::kNever, storage::FsyncPolicy::kInterval,
        storage::FsyncPolicy::kAlways}) {
    const std::string name = storage::to_string(policy);
    const fs::path dir =
        fs::temp_directory_path() / ("itree_bench_e15_" + name);
    fs::remove_all(dir);

    net::ServerConfig config;
    config.campaigns = campaigns;
    config.storage.data_dir = dir.string();
    config.storage.fsync = policy;
    config.storage.mechanism_name = "geometric";
    net::Server server(*mechanism, config);
    std::thread loop([&server] { server.run(); });

    driver.port = server.port();
    const net::LoadReport load = driver.run(base);
    if (!load.error.empty()) {
      std::cerr << "connection failed: " << load.error << '\n';
      server.request_shutdown();
      loop.join();
      return 1;
    }
    const double elapsed = load.wall_seconds;
    const std::uint64_t fsyncs = server.storage()->wal_fsyncs();
    const double total = static_cast<double>(campaigns) *
                         static_cast<double>(requests);

    net::Client ctl("127.0.0.1", server.port());
    ctl.shutdown_server();  // graceful drain: snapshot + compaction
    loop.join();

    // Restart cost for the drained directory.
    std::string rendered;
    storage::RecoveryReport report;
    const double recovery_seconds =
        timed_recover(*mechanism, campaigns, dir.string(), &rendered,
                      &report);

    harness.json().add_metric("ingest_rps_" + name, total / elapsed);
    harness.json().add_metric("wal_fsyncs_" + name,
                              static_cast<double>(fsyncs));
    harness.json().add_metric("recovery_ms_" + name,
                              recovery_seconds * 1e3);
    std::cout << "fsync=" << name << ": "
              << compact_number(total / elapsed, 0) << " req/s, "
              << fsyncs << " fsyncs, recovery "
              << compact_number(recovery_seconds * 1e3, 3)
              << " ms (snapshot seq " << report.snapshot_seq
              << ", tail " << report.tail_records << " records)\n";

    // The fsync policy must change durability, never the state.
    if (reference_rendered.empty()) {
      reference_rendered = rendered;
    } else if (rendered != reference_rendered) {
      std::cerr << "recovered rewards diverge across fsync policies\n";
      return 1;
    }
    fs::remove_all(dir);
  }
  harness.json().add_digest("final_rewards", reference_rendered);
  std::cout << "recovered rewards digest "
            << digest_hex(fnv1a64(reference_rendered))
            << " (identical across policies)\n";

  // --- Part 2: recovery scaling, WAL replay vs snapshot + tail ------
  const std::uint64_t events =
      static_cast<std::uint64_t>(campaigns) * requests;
  std::string wal_rendered, snap_rendered;
  storage::RecoveryReport wal_report, snap_report;
  double wal_seconds = 0.0, snap_seconds = 0.0;
  for (const bool with_snapshots : {false, true}) {
    const fs::path dir = fs::temp_directory_path() /
                         (with_snapshots ? "itree_bench_e15_snap"
                                         : "itree_bench_e15_wal");
    fs::remove_all(dir);
    storage::StorageConfig config;
    config.data_dir = dir.string();
    config.fsync = storage::FsyncPolicy::kNever;
    // Snapshot cadence leaves a ~12% tail to replay.
    config.snapshot_every = with_snapshots ? events / 8 : 0;
    {
      storage::Storage storage(*mechanism, 1, config);
      // The same writes-only stream a lone writer would send.
      Rng rng(base.fork(991));
      std::vector<NodeId> mine;
      for (std::uint64_t i = 0; i < events; ++i) {
        const net::BatchEvent event = driver.mix.next(rng, i, mine).event;
        if (event.kind == net::BatchEvent::kJoin) {
          storage.apply(0, JoinEvent{static_cast<NodeId>(event.node),
                                     event.amount});
          mine.push_back(static_cast<NodeId>(mine.size() + 1));
        } else {
          storage.apply(0, ContributeEvent{static_cast<NodeId>(event.node),
                                           event.amount});
        }
        if (i % 64 == 63) {
          storage.commit();
        }
      }
      storage.commit();
    }
    std::string* rendered = with_snapshots ? &snap_rendered : &wal_rendered;
    storage::RecoveryReport* report =
        with_snapshots ? &snap_report : &wal_report;
    (with_snapshots ? snap_seconds : wal_seconds) =
        timed_recover(*mechanism, 1, dir.string(), rendered, report);
    fs::remove_all(dir);
  }
  if (wal_rendered != snap_rendered) {
    std::cerr << "snapshot-compacted recovery diverges from WAL replay\n";
    return 1;
  }
  harness.json().add_metric("recovery_wal_replay_ms", wal_seconds * 1e3);
  harness.json().add_metric("recovery_snapshot_tail_ms",
                            snap_seconds * 1e3);
  harness.json().add_metric("recovery_tail_records",
                            static_cast<double>(snap_report.tail_records));
  harness.json().add_digest("recovery_scaling_rewards", wal_rendered);
  std::cout << "restart over " << events << " events: full WAL replay "
            << compact_number(wal_seconds * 1e3, 3)
            << " ms vs snapshot + " << snap_report.tail_records
            << "-record tail "
            << compact_number(snap_seconds * 1e3, 3)
            << " ms (identical state, digest "
            << digest_hex(fnv1a64(wal_rendered)) << ")\n";

  return harness.finish();
}
