// `itree-router` — the campaign-sharded L7 proxy for shard-per-process
// write scale-out (src/router/, docs/sharding.md).
//
// Two deployment modes:
//
//   * Explicit shards — front existing workers:
//       itree-router --port 7430 --campaigns 8
//           --shards 127.0.0.1:7431,127.0.0.1:7432
//
//   * Supervisor mode — spawn and babysit the workers too:
//       itree-router --port 7430 --campaigns 8 --spawn 2
//           --data-dir /var/lib/itree --mechanism geometric
//     Each of the N workers is an `itree-served` process with its own
//     `--data-dir <dir>/shard_<i>` (WAL + snapshots) and a
//     kernel-assigned port scraped from its log; a crashed worker is
//     respawned on the same port, recovers from its WAL, and the
//     router redials it immediately.
//
// Campaign c is owned by shard (c mod shards); every worker is started
// with the full `--campaigns` count so ids cross the router
// untranslated. The router answers SHARD_MAP itself and aggregates
// SERVER_STATS across the fleet; everything else is forwarded
// byte-for-byte, so clients (itree-loadgen included) need no changes.
//
// Like itree-served, the "listening on <host>:<port>" line is flushed
// only once the router is actually usable — after every backend
// connection came up (or a 10 s grace expired) — so scripts can wait
// for readiness and scrape the resolved port.
#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "net/client.h"
#include "net/retry.h"
#include "router/router.h"
#include "router/supervisor.h"
#include "util/args.h"
#include "util/bench_json.h"
#include "util/parallel.h"

namespace {

itree::router::Router* g_router = nullptr;

void handle_signal(int) {
  if (g_router != nullptr) {
    g_router->request_shutdown();  // one async-signal-safe eventfd write
  }
}

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::size_t end =
        comma == std::string::npos ? text.size() : comma;
    if (end > start) {
      parts.push_back(text.substr(start, end - start));
    }
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  return parts;
}

/// Default worker binary: `itree-served` next to this executable (the
/// build tree and installed layouts both put them side by side), falling
/// back to PATH resolution by execv.
std::string default_worker_bin(const char* argv0) {
  const std::string self(argv0);
  const std::size_t slash = self.rfind('/');
  if (slash == std::string::npos) {
    return "itree-served";
  }
  return self.substr(0, slash + 1) + "itree-served";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace itree;
  ArgParser args;
  args.add_flag("--host", "bind address (default 127.0.0.1)");
  args.add_flag("--port", "TCP port; 0 = kernel-assigned (default 7430)");
  args.add_flag("--campaigns",
                "total campaigns across the deployment (default 1)");
  args.add_flag("--shards",
                "comma-separated worker endpoints HOST:PORT[,...]; "
                "campaign c is owned by shard (c mod count)");
  args.add_flag("--spawn",
                "supervisor mode: spawn this many itree-served workers "
                "instead of --shards");
  args.add_flag("--worker-bin",
                "worker binary for --spawn (default: itree-served next "
                "to this executable)");
  args.add_flag("--data-dir",
                "--spawn: root directory; shard i gets "
                "<dir>/shard_<i> (WAL + snapshots) and <dir>/shard_<i>.log");
  args.add_flag("--mechanism",
                "--spawn: worker reward mechanism (default geometric)");
  args.add_flag("--params",
                "--spawn: worker mechanism parameters, e.g. \"a=0.4\"");
  args.add_flag("--fsync",
                "--spawn: worker WAL fsync policy (default interval)");
  args.add_flag("--snapshot-every",
                "--spawn: worker snapshot cadence in events");
  args.add_flag("--worker-reactors",
                "--spawn: epoll reactors per worker (default 1)");
  args.add_flag("--reactors",
                "router reactor threads, each with its own SO_REUSEPORT "
                "listener and backend connections (default 1)");
  args.add_flag("--idle-timeout",
                "close client sessions idle for this many seconds "
                "(0 = never)");
  args.add_flag("--no-remote-shutdown",
                "ignore SHUTDOWN frames (signals only)", false);
  if (!args.parse(argc, argv)) {
    std::cerr << args.error() << '\n';
    return 2;
  }

  try {
    router::RouterConfig config;
    config.host = args.get_or("--host", "127.0.0.1");
    config.port = static_cast<std::uint16_t>(
        args.get_int_in("--port", 7430, 0, 65535));
    config.campaigns = static_cast<std::uint32_t>(
        args.get_int_in("--campaigns", 1, 1, net::kMaxCampaigns));
    config.reactors = static_cast<std::size_t>(
        args.get_int_in("--reactors", 1, 1, kMaxThreadCount));
    config.idle_timeout_seconds =
        args.get_double_in("--idle-timeout", 0.0, 0.0, kMaxRealFlag);
    config.allow_remote_shutdown = !args.has("--no-remote-shutdown");

    // Shard s owns the campaigns c with c mod N == s, so a worker past
    // the campaign count would own none; each worker is a process.
    const auto spawn = static_cast<std::size_t>(args.get_int_in(
        "--spawn", 0, 0,
        std::min<std::int64_t>(config.campaigns, kMaxThreadCount)));
    std::unique_ptr<router::Supervisor> supervisor;
    if (spawn > 0) {
      if (args.has("--shards")) {
        throw std::invalid_argument(
            "--spawn and --shards are mutually exclusive");
      }
      router::SupervisorConfig sup;
      sup.worker_bin =
          args.get_or("--worker-bin", default_worker_bin(argv[0]));
      sup.shards = spawn;
      sup.host = config.host;
      sup.data_dir = args.get_or("--data-dir", "");
      if (sup.data_dir.empty()) {
        throw std::invalid_argument("--spawn requires --data-dir");
      }
      // Every worker hosts the FULL campaign count so campaign ids
      // cross the router untranslated; unowned campaigns stay empty.
      sup.worker_args = {
          "--campaigns", std::to_string(config.campaigns),
          "--mechanism", args.get_or("--mechanism", "geometric"),
          "--fsync",     args.get_or("--fsync", "interval"),
          "--reactors",  args.get_or("--worker-reactors", "1"),
      };
      const std::string params = args.get_or("--params", "");
      if (!params.empty()) {
        sup.worker_args.push_back("--params");
        sup.worker_args.push_back(params);
      }
      if (args.has("--snapshot-every")) {
        sup.worker_args.push_back("--snapshot-every");
        sup.worker_args.push_back(args.get_or("--snapshot-every", "0"));
      }
      supervisor = std::make_unique<router::Supervisor>(std::move(sup));
      supervisor->start();
      config.shards = supervisor->endpoints();
      for (std::size_t i = 0; i < config.shards.size(); ++i) {
        std::cout << "itree-router: spawned shard " << i << " worker at "
                  << config.shards[i] << '\n';
      }
    } else {
      config.shards = split_csv(args.get_or("--shards", ""));
      if (config.shards.empty()) {
        throw std::invalid_argument(
            "need --shards HOST:PORT[,...] or --spawn N");
      }
    }

    router::Router router(config);
    if (supervisor != nullptr) {
      router.set_restart_counter([&supervisor](std::uint32_t shard) {
        return supervisor->restarts(shard);
      });
      supervisor->monitor([&router](std::uint32_t shard) {
        router.note_shard_restarted(shard);
      });
    }
    g_router = &router;
    std::signal(SIGTERM, handle_signal);
    std::signal(SIGINT, handle_signal);
    std::signal(SIGPIPE, SIG_IGN);

    std::thread serving([&router] { router.run(); });

    // Readiness gate: poll our own SHARD_MAP until every backend link
    // is up (workers that raced us to the socket) so the "listening on"
    // line means "requests will not bounce with SHARD_DOWN". After a
    // 10 s grace the line is printed anyway — fail-fast semantics take
    // over and unhealthy shards answer SHARD_DOWN until they connect.
    std::size_t healthy = 0;
    const double deadline = monotonic_seconds() + 10.0;
    while (monotonic_seconds() < deadline) {
      try {
        net::Client probe(config.host, router.port());
        const net::ShardMapBody map = probe.shard_map();
        healthy = 0;
        for (const net::ShardMapEntry& entry : map.shards) {
          healthy += entry.healthy;
        }
        if (healthy == router.shard_count()) {
          break;
        }
      } catch (const std::exception&) {
        // Listener up but reactor busy, or a race with run(); retry.
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (healthy != router.shard_count()) {
      std::cerr << "itree-router: warning: only " << healthy << '/'
                << router.shard_count()
                << " shard workers reachable at startup\n";
    }
    std::cout << "itree-router: listening on " << config.host << ':'
              << router.port() << " (" << config.campaigns
              << " campaign(s), " << router.shard_count()
              << " shard(s), " << router.reactor_count()
              << " reactor(s)" << (supervisor ? ", supervised" : "")
              << ")\n"
              << std::flush;

    serving.join();
    g_router = nullptr;
    if (supervisor != nullptr) {
      supervisor->stop();
    }

    const router::RouterCounters counters = router.counters();
    std::cout << "itree-router: drained. sessions accepted "
              << counters.sessions_accepted << ", requests routed "
              << counters.requests_routed << ", responses relayed "
              << counters.responses_relayed << ", shard-down errors "
              << counters.shard_down_errors << '\n';
    // Machine-readable exit report: one JSON object on one line.
    std::ostringstream report;
    report << "{\"daemon\":\"itree-router\""
           << ",\"shards\":" << router.shard_count()
           << ",\"reactors\":" << router.reactor_count()
           << ",\"campaigns\":" << config.campaigns
           << ",\"counters\":{"
           << "\"sessions_accepted\":" << counters.sessions_accepted
           << ",\"sessions_closed\":" << counters.sessions_closed
           << ",\"requests_routed\":" << counters.requests_routed
           << ",\"responses_relayed\":" << counters.responses_relayed
           << ",\"requests_answered_locally\":"
           << counters.requests_answered_locally
           << ",\"protocol_errors\":" << counters.protocol_errors
           << ",\"sessions_timed_out\":" << counters.sessions_timed_out
           << ",\"backpressure_stalls\":" << counters.backpressure_stalls
           << ",\"shard_down_errors\":" << counters.shard_down_errors
           << ",\"backend_failures\":" << counters.backend_failures
           << ",\"backend_reconnects\":" << counters.backend_reconnects
           << ",\"stats_resets_detected\":"
           << counters.stats_resets_detected << '}';
    if (supervisor != nullptr) {
      report << ",\"worker_restarts\":[";
      for (std::size_t i = 0; i < router.shard_count(); ++i) {
        report << (i == 0 ? "" : ",")
               << supervisor->restarts(static_cast<std::uint32_t>(i));
      }
      report << ']';
    }
    report << '}';
    std::cout << report.str() << '\n';
    return 0;
  } catch (const FlagError& error) {
    std::cerr << "itree-router: " << error.what() << '\n';
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "itree-router: " << error.what() << '\n';
    return 1;
  }
}
