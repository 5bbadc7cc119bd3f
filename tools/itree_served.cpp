// `itree-served` — the epoll reward-service daemon.
//
// Boots one Server hosting N campaigns of the chosen mechanism behind
// `--reactors` epoll loops (SO_REUSEPORT; each applies its own
// sessions' requests under per-campaign locks, see net/server.h) and
// serves the binary wire protocol (docs/protocol.md)
// until SIGTERM / SIGINT / a SHUTDOWN frame, then drains gracefully and
// prints an exit report: one human-readable summary line plus one
// machine-readable JSON object (counters, per-campaign state, worst
// audit divergence) on its own line, so deployment scripts can assert
// on exact fields instead of scraping prose.
//
// Examples:
//   itree-served --port 7431 --campaigns 8 --mechanism geometric
//   itree-served --reactors 4 --campaigns 8   # four epoll loops
//   itree-served --port 0 --campaigns 4     # ephemeral port
//   itree-served --data-dir /var/lib/itree/data --fsync always
//
// With --data-dir the daemon runs on the crash-safe storage engine
// (docs/storage.md): existing state is recovered before the socket
// accepts traffic, every accepted event is written to a checksummed
// WAL, and acknowledgements are only sent after the tick's group
// commit. A recovery report is printed before "listening on".
//
// The "listening on <host>:<port>" line on stdout is flushed before the
// event loop starts, so scripts can wait for readiness and scrape the
// resolved port (useful with --port 0).
#include <algorithm>
#include <csignal>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "core/factory.h"
#include "net/endpoint.h"
#include "net/server.h"
#include "replication/replica.h"
#include "util/args.h"
#include "util/parallel.h"
#include "util/strings.h"

namespace {

itree::net::Server* g_server = nullptr;

void handle_signal(int) {
  if (g_server != nullptr) {
    g_server->request_shutdown();  // one async-signal-safe eventfd write
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace itree;
  ArgParser args;
  args.add_flag("--host", "bind address (default 127.0.0.1)");
  args.add_flag("--port", "TCP port; 0 = kernel-assigned (default 7431)");
  args.add_flag("--campaigns", "number of hosted campaigns (default 1)");
  args.add_flag("--mechanism", "reward mechanism (default geometric)");
  args.add_flag("--params", "mechanism parameters, e.g. \"a=0.4,b=0.2\"");
  args.add_flag("--idle-timeout",
                "close sessions idle for this many seconds (0 = never)");
  args.add_flag("--data-dir",
                "crash-safe storage directory (WAL + snapshots)");
  args.add_flag("--fsync",
                "WAL fsync policy: always|interval|never (default interval)");
  args.add_flag("--fsync-interval",
                "seconds between interval-policy fsyncs (default 0.02)");
  args.add_flag("--snapshot-every",
                "snapshot + compact after this many events (0 = only on "
                "shutdown)");
  args.add_flag("--no-remote-shutdown",
                "ignore SHUTDOWN frames (signals only)", false);
  args.add_flag("--reactors",
                "epoll reactor threads, each with its own SO_REUSEPORT "
                "listener, applying its sessions' requests (default 1)");
  args.add_flag("--replica-of",
                "run as a read replica of the primary at HOST:PORT: "
                "bootstrap from its snapshot/WAL, apply its shipped "
                "records continuously, serve reads, redirect writes");
  args.add_flag("--serve-stale-ms",
                "replica: bounce REWARD_AT tokens not applied within "
                "this many milliseconds (default 1000)");
  args.add_flag("--repl-poll-ms",
                "replica: puller idle-poll cadence in milliseconds "
                "(default 2)");
  args.add_flag("--threads",
                "worker threads for recovery's parallel CRC and adopt "
                "passes (default: hardware)");
  if (!args.parse(argc, argv)) {
    std::cerr << args.error() << '\n';
    return 2;
  }

  try {
    // Ranged flags first: a bad count is refused before the pool, any
    // listener or any reactor thread exists.
    net::ServerConfig config;
    config.port = static_cast<std::uint16_t>(
        args.get_int_in("--port", 7431, 0, 65535));
    config.reactors = static_cast<std::size_t>(
        args.get_int_in("--reactors", 1, 1, kMaxThreadCount));
    config.campaigns = static_cast<std::size_t>(
        args.get_int_in("--campaigns", 1, 1, net::kMaxCampaigns));
    set_thread_count(static_cast<std::size_t>(
        args.get_int_in("--threads", 0, 0, kMaxThreadCount)));
    const MechanismPtr mechanism =
        make_mechanism(args.get_or("--mechanism", "geometric"),
                       parse_param_string(args.get_or("--params", "")));

    config.host = args.get_or("--host", "127.0.0.1");
    config.idle_timeout_seconds =
        args.get_double_in("--idle-timeout", 0.0, 0.0, kMaxRealFlag);
    config.allow_remote_shutdown = !args.has("--no-remote-shutdown");
    config.storage.data_dir = args.get_or("--data-dir", "");
    config.storage.fsync =
        storage::parse_fsync_policy(args.get_or("--fsync", "interval"));
    config.storage.fsync_interval_seconds =
        args.get_double_in("--fsync-interval", 0.02, 0.0, kMaxRealFlag);
    config.storage.snapshot_every = static_cast<std::uint64_t>(
        args.get_int_in("--snapshot-every", 0, 0,
                        std::numeric_limits<std::int64_t>::max()));
    config.storage.mechanism_name = args.get_or("--mechanism", "geometric");
    config.storage.mechanism_params = args.get_or("--params", "");

    const std::string replica_of = args.get_or("--replica-of", "");
    replication::ReplicaOptions replica_options;
    if (!replica_of.empty()) {
      const auto [primary_host, primary_port] = net::parse_endpoint(replica_of);
      replica_options.primary_host = primary_host;
      replica_options.primary_port = primary_port;
      replica_options.serve_stale_seconds =
          args.get_double_in("--serve-stale-ms", 1000.0, 0.0, kMaxRealFlag) /
          1000.0;
      replica_options.poll_interval_seconds =
          args.get_double_in("--repl-poll-ms", 2.0, 0.0, kMaxRealFlag) /
          1000.0;
      // The campaign count comes from the primary, not from flags (the
      // mechanism still must be configured to match; the bootstrap
      // validates it against the primary's display name). A durable
      // replica's data dir is prepared first: kept when it can catch
      // up, wiped and re-seeded from a primary snapshot otherwise.
      const replication::PrimaryInfo info =
          config.storage.data_dir.empty()
              ? replication::probe_primary(replica_options)
              : replication::prepare_replica_data_dir(
                    config.storage.data_dir, replica_options);
      config.campaigns = info.campaigns;
      // The replica's puller applies shipped records outside the
      // storage state lock; commit-triggered snapshots must not run.
      config.storage.snapshot_every = 0;
    }

    net::Server server(*mechanism, config);
    std::unique_ptr<replication::ReplicaSync> replica_sync;
    if (!replica_of.empty()) {
      replica_sync = std::make_unique<replication::ReplicaSync>(
          *mechanism, server, replica_options);
      server.attach_replica(replica_sync.get(),
                            replica_options.serve_stale_seconds);
    }
    if (server.storage() != nullptr) {
      const storage::RecoveryReport& recovery =
          server.storage()->recovery();
      for (const std::string& warning : recovery.warnings) {
        std::cout << "itree-served: recovery warning: " << warning << '\n';
      }
      std::cout << "itree-served: recovered from "
                << config.storage.data_dir << ": snapshot seq "
                << recovery.snapshot_seq << ", WAL tail records "
                << recovery.tail_records << ", truncated bytes "
                << recovery.truncated_bytes << ", fsync policy "
                << to_string(config.storage.fsync) << ", "
                << storage::stage_seconds_text(recovery) << '\n';
    }
    g_server = &server;
    std::signal(SIGTERM, handle_signal);
    std::signal(SIGINT, handle_signal);
    std::signal(SIGPIPE, SIG_IGN);

    std::cout << "itree-served: listening on " << config.host << ':'
              << server.port() << " (" << config.campaigns
              << " campaign(s), " << mechanism->display_name() << ", "
              << server.reactor_count() << " reactor(s), "
              << thread_count() << " thread(s)"
              << (replica_sync != nullptr ? ", replica of " + replica_of
                                          : std::string())
              << ")\n"
              << std::flush;
    server.run();
    g_server = nullptr;

    const net::ServerStatsBody counters = server.counters();
    std::cout << "itree-served: drained. sessions accepted "
              << counters.sessions_accepted << ", requests served "
              << counters.requests_served << ", protocol errors "
              << counters.protocol_errors << '\n';
    // Machine-readable exit report: one JSON object on one line.
    std::ostringstream report;
    report << "{\"daemon\":\"itree-served\""
           << ",\"mechanism\":\"" << mechanism->display_name() << '"'
           << ",\"reactors\":" << server.reactor_count()
           << ",\"threads\":" << thread_count() << ",\"counters\":{";
    const char* separator = "";
    for (const net::ServerStatsField& field : net::kServerStatsFields) {
      report << separator << '"' << field.name
             << "\":" << counters.*field.member;
      separator = ",";
    }
    report << '}';
    if (server.storage() != nullptr) {
      const storage::StorageCounters& stored =
          server.storage()->counters();
      report << ",\"storage\":{"
             << "\"events_appended\":" << stored.events_appended
             << ",\"commits\":" << stored.commits
             << ",\"snapshots_written\":" << stored.snapshots_written
             << ",\"wal_fsyncs\":" << server.storage()->wal_fsyncs()
             << '}';
    }
    if (replica_sync != nullptr) {
      if (replica_sync->failed()) {
        std::cerr << "itree-served: replication stopped: "
                  << replica_sync->last_error() << '\n';
      }
      report << ",\"replication\":{"
             << "\"primary\":\"" << replica_of << '"'
             << ",\"primary_seq\":" << replica_sync->primary_seq()
             << ",\"applied_seq\":" << replica_sync->applied_floor()
             << ",\"records_shipped\":" << replica_sync->records_shipped()
             << ",\"failed\":"
             << (replica_sync->failed() ? "true" : "false") << '}';
    }
    report << ",\"campaigns\":[";
    double worst_audit = 0.0;
    for (std::size_t i = 0; i < server.campaign_count(); ++i) {
      const RewardService& service = server.campaign(i).service();
      const double divergence = service.audit();
      worst_audit = std::max(worst_audit, divergence);
      report << (i == 0 ? "" : ",") << "{\"campaign\":" << i
             << ",\"participants\":"
             << service.tree().participant_count()
             << ",\"events\":" << service.events_applied()
             << ",\"total_reward\":"
             << compact_number(service.total_reward(), 6)
             << ",\"audit_divergence\":"
             << shortest_number(divergence) << '}';
    }
    report << "],\"worst_audit_divergence\":"
           << shortest_number(worst_audit) << '}';
    std::cout << report.str() << '\n';
    return 0;
  } catch (const FlagError& error) {
    std::cerr << "itree-served: " << error.what() << '\n';
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "itree-served: " << error.what() << '\n';
    return 1;
  }
}
