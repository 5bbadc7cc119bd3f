// `itree-loadgen` — seeded load generator for the reward-service
// daemon.
//
// Replays a synthetic referral workload (joins, follow-up
// contributions, reward/stats queries and periodic full-vector reads)
// over N connections through net::LoadDriver and reports throughput
// plus p50/p95/p99 frame latency. The request mix, the classic and
// streamed frame styles (--batch, --pipeline, --open-loop), the
// --replica read split and the latency definitions are described in
// src/net/load_driver.h. With --connections equal to --campaigns every
// campaign sees one deterministic event sequence and the final reward
// digests are reproducible in every style — the mode the CI smokes and
// bench_e14 assert on (see docs/protocol.md).
//
// Example (against a local daemon):
//   itree-loadgen --port 7431 --connections 4 --campaigns 4
//       --requests 2000 --check
//   itree-loadgen --connections 4 --campaigns 4 --batch 64
//       --pipeline 8 --open-loop 200000
//
// --check exits non-zero when any campaign's audit divergence exceeds
// 1e-9 — the pre-payout invariant a deployment would gate on.
#include <algorithm>
#include <iostream>
#include <vector>

#include "core/factory.h"
#include "net/client.h"
#include "net/endpoint.h"
#include "net/load_driver.h"
#include "util/args.h"
#include "util/bench_json.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/strings.h"

namespace {

using namespace itree;

/// Parses "host:port[,host:port...]" (the --replica flag).
std::vector<net::Endpoint> parse_endpoints(const std::string& text) {
  std::vector<net::Endpoint> endpoints;
  for (std::size_t begin = 0; begin < text.size();) {
    const std::size_t end = std::min(text.find(',', begin), text.size());
    try {
      endpoints.push_back(net::parse_endpoint(
          std::string_view(text).substr(begin, end - begin)));
    } catch (const std::invalid_argument& error) {
      throw std::invalid_argument(std::string("--replica: ") + error.what());
    }
    begin = end + 1;
  }
  return endpoints;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args;
  args.add_flag("--host", "server address (default 127.0.0.1)");
  args.add_flag("--port", "server port (default 7431)");
  args.add_flag("--connections", "concurrent connections (default 4)");
  args.add_flag("--campaigns",
                "campaigns to spread connections over (default 1)");
  args.add_flag("--requests", "requests per connection (default 1000)");
  args.add_flag("--seed", "workload seed (default 42)");
  args.add_flag("--mechanism",
                "label the report with the served mechanism: "
                "geometric|cdrm1|cdrm2|splitproof|tdrm|...");
  args.add_flag("--batch",
                "coalesce event runs into EVENT_BATCH frames of up to "
                "this many events (default 1 = classic per-event frames; "
                "> 1 requires --connections == --campaigns)");
  args.add_flag("--pipeline",
                "frames kept in flight before reading responses "
                "(default 1 = strict request/response; > 1 requires "
                "--connections == --campaigns)");
  args.add_flag("--open-loop",
                "offered load in requests/s spread over the connections "
                "(0 = closed loop; > 0 requires --connections == "
                "--campaigns); latency is measured from each request's "
                "scheduled arrival");
  args.add_flag("--replica",
                "read replicas as HOST:PORT[,HOST:PORT...] (classic mode "
                "only): query frames go round-robin to the replicas, "
                "reward queries as REWARD_AT carrying the writer's last "
                "write-ack token (read-your-writes)");
  args.add_flag("--verify-only",
                "skip the workload; just run the per-campaign "
                "verification pass (audit, stats, rewards digest) against "
                "--host/--port and honour --check/--shutdown", false);
  args.add_flag("--check",
                "exit 1 unless every campaign audit is < 1e-9", false);
  args.add_flag("--stats-seq-floor",
                "verify pass: the stats_seq printed by an earlier poll of "
                "the same process; seeing a value at or below it means the "
                "process restarted (cumulative counters reset) — warn, and "
                "with --check exit 1");
  args.add_flag("--shutdown", "send SHUTDOWN when done", false);
  if (!args.parse(argc, argv)) {
    std::cerr << args.error() << '\n';
    return 2;
  }

  try {
    // Numeric flags are validated here (bad values throw), so parsing
    // failures print one clean line instead of aborting mid-run.
    net::LoadDriver driver;
    driver.host = args.get_or("--host", "127.0.0.1");
    driver.port = static_cast<std::uint16_t>(
        args.get_int_in("--port", 7431, 0, 65535));
    // One driver thread per connection.
    driver.connections = static_cast<std::size_t>(
        args.get_int_in("--connections", 4, 1, kMaxThreadCount));
    driver.campaigns = static_cast<std::uint32_t>(
        args.get_int_in("--campaigns", 1, 1, net::kMaxCampaigns));
    driver.requests = static_cast<std::uint64_t>(
        args.get_int_in("--requests", 1000, 1, net::kMaxRequests));
    const Rng base(
        static_cast<std::uint64_t>(args.get_int_or("--seed", 42)));
    const std::string mechanism = args.get_or("--mechanism", "");
    driver.batch = static_cast<std::uint32_t>(
        args.get_int_in("--batch", 1, 1, net::kMaxBatchEvents));
    driver.pipeline = static_cast<std::uint32_t>(
        args.get_int_in("--pipeline", 1, 1, net::kMaxPipeline));
    driver.rate = args.get_double_in("--open-loop", 0.0, 0.0, kMaxRealFlag);
    driver.replicas = parse_endpoints(args.get_or("--replica", ""));
    if (driver.streamed() && driver.connections != driver.campaigns) {
      // Streamed modes predict sequential participant ids, which is
      // only sound when each campaign has exactly one writer.
      std::cerr << "--batch/--pipeline/--open-loop require --connections "
                   "== --campaigns (one writer per campaign)\n";
      return 2;
    }
    if (!mechanism.empty()) {
      try {
        make_mechanism(mechanism);
      } catch (const std::invalid_argument&) {
        std::cerr << "unknown --mechanism label '" << mechanism
                  << "' (expected a make_mechanism name: geometric, "
                     "l-luxor, l-pachira, split-proof, tdrm, cdrm1, "
                     "cdrm2, ...)\n";
        return 2;
      }
    }
    if (!driver.replicas.empty() && driver.streamed()) {
      // Streamed frames mix events and queries in one pipeline; a read
      // split would reorder them across connections.
      std::cerr << "--replica requires the classic mode (no --batch/"
                   "--pipeline/--open-loop)\n";
      return 2;
    }

    if (!args.has("--verify-only")) {
      net::LoadReport report = driver.run(base);
      if (!report.error.empty()) {
        std::cerr << "connection failed: " << report.error << '\n';
        return 1;
      }
      std::vector<double>& latencies = report.latencies_seconds;
      const double wall = report.wall_seconds;
      std::cout << "itree-loadgen: " << report.frames << " frames over "
                << driver.connections << " connection(s) in "
                << compact_number(wall, 3) << " s -> "
                << compact_number(report.frames / wall, 0) << " req/s";
      if (driver.streamed()) {
        std::cout << " (batch " << driver.batch << ", pipeline "
                  << driver.pipeline;
        if (driver.rate > 0.0) {
          std::cout << ", open-loop " << compact_number(driver.rate, 0)
                    << "/s offered";
        }
        std::cout << ')';
      }
      if (!driver.replicas.empty()) {
        std::cout << " (" << report.replica_reads << " reads on "
                  << driver.replicas.size() << " replica(s))";
      }
      const double max_latency =
          latencies.empty()
              ? 0.0
              : *std::max_element(latencies.begin(), latencies.end());
      if (latencies.empty()) {
        latencies.push_back(0.0);  // --requests 0: keep the report shape
      }
      std::cout << '\n'
                << "mechanism "
                << (mechanism.empty() ? "(unlabelled)" : mechanism)
                << ": reward_events_per_sec "
                << compact_number(report.events / wall, 0) << " ("
                << report.events << " join/contribute events)\n"
                << (driver.rate > 0.0 ? "latency ms (from scheduled "
                                        "arrival): p50 "
                                      : "latency ms: p50 ")
                << compact_number(percentile(latencies, 50) * 1e3, 3)
                << "  p95 "
                << compact_number(percentile(latencies, 95) * 1e3, 3)
                << "  p99 "
                << compact_number(percentile(latencies, 99) * 1e3, 3)
                << "  max " << compact_number(max_latency * 1e3, 3)
                << '\n';
    }

    // Verification pass over every campaign (the whole run with
    // --verify-only — e.g. digest comparison across a primary and its
    // replicas after the replication stream drained).
    net::Client verifier =
        net::Client::connect_with_retry(driver.host, driver.port);
    double worst_audit = 0.0;
    for (std::uint32_t campaign = 0; campaign < driver.campaigns;
         ++campaign) {
      const double divergence = verifier.audit(campaign);
      const net::StatsBody stats = verifier.stats(campaign);
      const std::uint64_t digest =
          fnv1a64(hex_doubles(verifier.rewards(campaign)));
      worst_audit = std::max(worst_audit, divergence);
      std::cout << "campaign " << campaign << ": participants "
                << stats.participants << ", events " << stats.events
                << ", total reward "
                << compact_number(stats.total_reward, 6) << ", audit "
                << compact_number(divergence, 12) << ", rewards digest "
                << digest_hex(digest) << '\n';
    }
    // One SERVER_STATS poll closes the verify pass. Its stats_seq is
    // strictly increasing per process (a router serves its own), so a
    // later poll passing this value back via --stats-seq-floor detects
    // a restart in between — cumulative counters that reset to zero
    // would otherwise read as a healthy, quiet server.
    bool stats_reset = false;
    const net::ServerStatsBody server_stats = verifier.server_stats();
    std::cout << "server stats_seq " << server_stats.stats_seq
              << " (requests served " << server_stats.requests_served
              << ", sessions accepted " << server_stats.sessions_accepted
              << ")\n";
    if (args.has("--stats-seq-floor")) {
      const auto floor_seq =
          static_cast<std::uint64_t>(args.get_int_or("--stats-seq-floor", 0));
      if (server_stats.stats_seq <= floor_seq) {
        stats_reset = true;
        std::cerr << "itree-loadgen: stats_seq " << server_stats.stats_seq
                  << " <= floor " << floor_seq
                  << ": the server restarted between polls (cumulative "
                     "counters reset)\n";
      }
    }
    if (args.has("--shutdown")) {
      verifier.shutdown_server();
    }
    if (args.has("--check") && worst_audit >= 1e-9) {
      std::cerr << "audit divergence " << worst_audit
                << " exceeds 1e-9\n";
      return 1;
    }
    if (args.has("--check") && stats_reset) {
      return 1;
    }
    return 0;
  } catch (const FlagError& error) {
    std::cerr << "itree-loadgen: " << error.what() << '\n';
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "itree-loadgen: " << error.what() << '\n';
    return 1;
  }
}
