// `itree-loadgen` — seeded load generator for the reward-service
// daemon.
//
// Replays a synthetic referral workload (a mix of joins, follow-up
// contributions, reward/stats queries and periodic full-vector reads)
// over N blocking connections and reports throughput plus p50/p95/p99
// request latency. Connection c targets campaign (c % campaigns) and
// draws its events from Rng::fork(c), so with --connections equal to
// --campaigns every campaign sees one deterministic event sequence and
// the final reward digests are reproducible — that is the mode the CI
// smoke job and bench_e14 assert on (see docs/protocol.md).
//
// Streamed modes (any of --batch > 1, --pipeline > 1, --open-loop):
//   * --batch B coalesces runs of join/contribute events into
//     EVENT_BATCH frames of up to B events (one frame, one response,
//     one server-side flush).
//   * --pipeline W keeps up to W frames in flight before reading.
//   * --open-loop RATE switches from closed-loop (next request after
//     the previous response) to a fixed arrival schedule of RATE
//     requests/s spread over the connections, with latency measured
//     from each request's *scheduled arrival* — under overload this
//     reports the honest queueing delay a closed-loop run would hide.
// Streamed modes do not wait for join responses before referring to
// the new participant, so they predict the server's sequential id
// assignment; that requires exactly one connection per campaign
// (--connections == --campaigns, enforced) and the predictions are
// verified against every EVENT_BATCH response. The generated event
// sequence per campaign is byte-identical to the classic mode's, so
// final reward digests are unchanged by batching or pipelining.
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
#include <chrono>
#include <deque>
#include <iostream>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/endpoint.h"
#include "util/args.h"
#include "util/bench_json.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/strings.h"

namespace {

using namespace itree;

struct ConnectionReport {
  std::vector<double> latencies_seconds;
  std::uint64_t requests = 0;  ///< frames sent (a batch frame counts 1)
  std::uint64_t reward_events = 0;  ///< joins + contributions sent
  std::uint64_t replica_reads = 0;  ///< queries routed to replicas
  std::string error;  // non-empty: the connection failed
};

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

/// Mechanism labels accepted by --mechanism; purely a report label (the
/// mechanism itself is chosen when the daemon starts), but validated so
/// a typo'd benchmark run fails loudly instead of mislabelling results.
constexpr const char* kMechanismLabels[] = {
    "geometric", "luxor",      "l-luxor",   "cdrm1",  "cdrm2",
    "splitproof", "tdrm",      "pachira",   "l-pachira",
};

bool known_mechanism_label(const std::string& label) {
  for (const char* known : kMechanismLabels) {
    if (label == known) {
      return true;
    }
  }
  return false;
}

/// One workload decision: either a reward event or a query frame.
struct Decision {
  bool is_event = false;
  net::BatchEvent event;   ///< valid when is_event
  net::Request query;      ///< valid when !is_event
};

/// Draws the next workload decision. This is THE request mix — both
/// the classic and the streamed drivers consume the rng identically,
/// so the per-campaign event sequence (and the final reward digests)
/// are independent of batching, pipelining and pacing.
Decision next_decision(Rng& rng, std::uint32_t campaign, std::uint64_t i,
                       const std::vector<NodeId>& mine) {
  Decision decision;
  if (mine.empty() || rng.bernoulli(0.55)) {
    decision.is_event = true;
    decision.event.kind = net::BatchEvent::kJoin;
    decision.event.node = (mine.empty() || rng.bernoulli(0.15))
                              ? kRoot
                              : mine[rng.index(mine.size())];
    decision.event.amount = rng.uniform(0.0, 3.0);
  } else if (rng.bernoulli(0.5)) {
    decision.is_event = true;
    decision.event.kind = net::BatchEvent::kContribute;
    decision.event.node = mine[rng.index(mine.size())];
    decision.event.amount = rng.uniform(0.0, 2.0);
  } else if (i % 64 == 63) {
    decision.query.type = net::MsgType::kRewardsBatch;
  } else if (rng.bernoulli(0.8)) {
    decision.query.type = net::MsgType::kReward;
    decision.query.node = mine[rng.index(mine.size())];
  } else {
    decision.query.type = net::MsgType::kStats;
  }
  decision.query.campaign = campaign;
  return decision;
}

/// Drives one connection's seeded request stream in the classic
/// closed-loop one-frame-at-a-time mode; `rng` must be a dedicated
/// fork so the stream is identical regardless of how other connections
/// interleave.
void drive_connection(
    const std::string& host, std::uint16_t port, std::uint32_t campaign,
    std::uint64_t requests, Rng rng,
    const std::vector<net::Endpoint>& replicas,
    ConnectionReport* report) {
  try {
    net::Client client = net::Client::connect_with_retry(host, port);
    // Read split: with --replica, query frames go round-robin to the
    // replicas instead of the primary. Reward queries carry this
    // connection's last write-ack token (REWARD_AT), so every read
    // observes this writer's own events — read-your-writes across the
    // primary/replica boundary. The event stream itself is untouched,
    // so the final reward digests are unchanged by the split.
    std::vector<net::Client> readers;
    readers.reserve(replicas.size());
    for (const auto& [replica_host, replica_port] : replicas) {
      readers.push_back(
          net::Client::connect_with_retry(replica_host, replica_port));
    }
    std::vector<NodeId> mine;  // participants this connection created
    report->latencies_seconds.reserve(requests);
    for (std::uint64_t i = 0; i < requests; ++i) {
      const Decision decision = next_decision(rng, campaign, i, mine);
      net::Request request = decision.query;
      net::Client* target = &client;
      if (decision.is_event) {
        request.type = decision.event.kind == net::BatchEvent::kJoin
                           ? net::MsgType::kJoin
                           : net::MsgType::kContribute;
        request.node = decision.event.node;
        request.amount = decision.event.amount;
      } else if (!readers.empty()) {
        target = &readers[report->replica_reads % readers.size()];
        ++report->replica_reads;
        if (request.type == net::MsgType::kReward) {
          request.type = net::MsgType::kRewardAt;
          request.seq = client.last_write_seq();
        }
      }
      const double start = monotonic_seconds();
      net::Response response;
      try {
        response = target->call(request);
      } catch (const std::exception& error) {
        throw std::runtime_error(
            "request " + std::to_string(static_cast<int>(request.type)) +
            " (campaign " + std::to_string(request.campaign) + ", node " +
            std::to_string(request.node) + ", seq " +
            std::to_string(request.seq) + ", target " +
            (target == &client ? "primary" : "replica") +
            "): " + error.what());
      }
      report->latencies_seconds.push_back(monotonic_seconds() - start);
      ++report->requests;
      if (decision.is_event) {
        ++report->reward_events;
        if (request.type == net::MsgType::kJoin) {
          mine.push_back(static_cast<NodeId>(response.id));
        }
      }
    }
  } catch (const std::exception& error) {
    report->error = error.what();
  }
}

/// One in-flight frame awaiting its response.
struct InflightFrame {
  double reference_time = 0.0;  ///< send time, or scheduled arrival
  std::uint32_t batch_events = 0;      ///< 0: plain query frame
  std::vector<std::uint64_t> expected; ///< predicted EVENT_BATCH results
};

struct StreamOptions {
  std::uint32_t batch = 1;
  std::uint32_t pipeline = 1;
  double rate_per_connection = 0.0;  ///< > 0: open-loop pacing
};

/// Reads one response and validates it against its frame descriptor.
/// Throws on error frames, partial batches or id-prediction misses.
void settle_frame(net::Client& client, const InflightFrame& frame,
                  ConnectionReport* report) {
  const net::Response response = client.read_response();
  if (!response.ok()) {
    throw net::ServiceError(response.error, response.message);
  }
  if (frame.batch_events > 0) {
    if (response.status != net::Status::kOkBatch ||
        response.batch_results != frame.expected) {
      throw std::runtime_error(
          "EVENT_BATCH response does not match the predicted id "
          "sequence (is another writer sharing this campaign?)");
    }
  }
  report->latencies_seconds.push_back(monotonic_seconds() -
                                      frame.reference_time);
}

/// Streamed driver: batches events into EVENT_BATCH frames, keeps a
/// pipeline window in flight and (open-loop) paces sends on a fixed
/// arrival schedule. Participant ids are predicted (sequential per
/// campaign), which is valid because this connection is the campaign's
/// only writer; every prediction is verified in settle_frame.
void drive_connection_streamed(const std::string& host, std::uint16_t port,
                               std::uint32_t campaign,
                               std::uint64_t requests, Rng rng,
                               StreamOptions options,
                               ConnectionReport* report) {
  try {
    net::Client client = net::Client::connect_with_retry(host, port);
    std::vector<NodeId> mine;
    // The server assigns ids sequentially per campaign; seed the
    // prediction from live state so streamed runs compose (a second
    // pass against the same daemon keeps predicting correctly).
    NodeId next_id =
        static_cast<NodeId>(client.stats(campaign).participants) + 1;
    std::vector<net::BatchEvent> pending;
    std::vector<std::uint64_t> pending_expected;  // id per join, 0 else
    double pending_reference = 0.0;  // first decision's reference time
    std::deque<InflightFrame> inflight;
    report->latencies_seconds.reserve(requests);
    const double start = monotonic_seconds();

    const auto settle_down_to = [&](std::size_t limit) {
      while (inflight.size() > limit) {
        settle_frame(client, inflight.front(), report);
        inflight.pop_front();
      }
    };
    const auto flush_pending = [&] {
      if (pending.empty()) {
        return;
      }
      net::Request request;
      request.type = net::MsgType::kEventBatch;
      request.campaign = campaign;
      request.batch = std::move(pending);
      pending.clear();
      InflightFrame frame;
      frame.reference_time = pending_reference;
      frame.batch_events = static_cast<std::uint32_t>(request.batch.size());
      frame.expected = std::move(pending_expected);
      pending_expected.clear();
      // Make room in the window first: the send below can block on a
      // full socket, and responses must keep draining meanwhile.
      settle_down_to(options.pipeline - 1);
      client.send_request(request);
      ++report->requests;
      report->reward_events += frame.batch_events;
      inflight.push_back(std::move(frame));
    };

    for (std::uint64_t i = 0; i < requests; ++i) {
      double reference = monotonic_seconds();
      if (options.rate_per_connection > 0.0) {
        // Open loop: decision i arrives at its scheduled time no
        // matter how the server is doing; latency is measured from
        // this schedule, so server-side queueing is charged honestly.
        const double scheduled =
            start + static_cast<double>(i) / options.rate_per_connection;
        const double now = monotonic_seconds();
        if (now < scheduled) {
          std::this_thread::sleep_for(
              std::chrono::duration<double>(scheduled - now));
        }
        reference = scheduled;
      }
      const Decision decision = next_decision(rng, campaign, i, mine);
      if (decision.is_event) {
        if (pending.empty()) {
          pending_reference = reference;
        }
        if (decision.event.kind == net::BatchEvent::kJoin) {
          // Predict the id the server will assign; verified when the
          // EVENT_BATCH response arrives (settle_frame).
          mine.push_back(next_id);
          pending_expected.push_back(next_id++);
        } else {
          pending_expected.push_back(0);
        }
        pending.push_back(decision.event);
        if (pending.size() >= options.batch) {
          flush_pending();
        }
        continue;
      }
      flush_pending();
      InflightFrame frame;
      frame.reference_time = reference;
      settle_down_to(options.pipeline - 1);
      client.send_request(decision.query);
      ++report->requests;
      inflight.push_back(std::move(frame));
    }
    flush_pending();
    settle_down_to(0);
  } catch (const std::exception& error) {
    report->error = error.what();
  }
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
    const std::string host = args.get_or("--host", "127.0.0.1");
    const auto port =
        static_cast<std::uint16_t>(args.get_int_or("--port", 7431));
    const auto connections =
        static_cast<std::size_t>(args.get_int_or("--connections", 4));
    const auto campaigns =
        static_cast<std::uint32_t>(args.get_int_or("--campaigns", 1));
    const auto requests =
        static_cast<std::uint64_t>(args.get_int_or("--requests", 1000));
    const Rng base(
        static_cast<std::uint64_t>(args.get_int_or("--seed", 42)));
    const std::string mechanism = args.get_or("--mechanism", "");
    StreamOptions stream;
    stream.batch =
        static_cast<std::uint32_t>(args.get_int_or("--batch", 1));
    stream.pipeline =
        static_cast<std::uint32_t>(args.get_int_or("--pipeline", 1));
    const double open_loop_rate = args.get_double_or("--open-loop", 0.0);
    const bool streamed =
        stream.batch > 1 || stream.pipeline > 1 || open_loop_rate > 0.0;
    if (connections == 0 || campaigns == 0) {
      std::cerr << "need at least one connection and one campaign\n";
      return 2;
    }
    if (stream.batch == 0 || stream.pipeline == 0) {
      std::cerr << "--batch and --pipeline must be >= 1\n";
      return 2;
    }
    if (streamed && connections != campaigns) {
      // Streamed modes predict sequential participant ids, which is
      // only sound when each campaign has exactly one writer.
      std::cerr << "--batch/--pipeline/--open-loop require --connections "
                   "== --campaigns (one writer per campaign)\n";
      return 2;
    }
    if (!mechanism.empty() && !known_mechanism_label(mechanism)) {
      std::cerr << "unknown --mechanism label '" << mechanism
                << "' (expected geometric|cdrm1|cdrm2|splitproof|tdrm|"
                   "luxor|l-luxor|pachira|l-pachira)\n";
      return 2;
    }
    stream.rate_per_connection =
        open_loop_rate / static_cast<double>(connections);
    const std::vector<net::Endpoint> replicas =
        parse_endpoints(args.get_or("--replica", ""));
    if (!replicas.empty() && streamed) {
      // Streamed frames mix events and queries in one pipeline; a read
      // split would reorder them across connections.
      std::cerr << "--replica requires the classic mode (no --batch/"
                   "--pipeline/--open-loop)\n";
      return 2;
    }
    const bool verify_only = args.has("--verify-only");

    if (!verify_only) {
      std::vector<ConnectionReport> reports(connections);
      std::vector<std::thread> threads;
      threads.reserve(connections);
      const double start = monotonic_seconds();
      for (std::size_t c = 0; c < connections; ++c) {
        const auto campaign = static_cast<std::uint32_t>(c % campaigns);
        if (streamed) {
          threads.emplace_back(drive_connection_streamed, host, port,
                               campaign, requests, base.fork(c), stream,
                               &reports[c]);
        } else {
          threads.emplace_back(drive_connection, host, port, campaign,
                               requests, base.fork(c), std::cref(replicas),
                               &reports[c]);
        }
      }
      for (std::thread& thread : threads) {
        thread.join();
      }
      const double wall = monotonic_seconds() - start;

      std::vector<double> latencies;
      std::uint64_t total_requests = 0;
      std::uint64_t total_events = 0;
      std::uint64_t replica_reads = 0;
      for (const ConnectionReport& report : reports) {
        if (!report.error.empty()) {
          std::cerr << "connection failed: " << report.error << '\n';
          return 1;
        }
        total_requests += report.requests;
        total_events += report.reward_events;
        replica_reads += report.replica_reads;
        latencies.insert(latencies.end(), report.latencies_seconds.begin(),
                         report.latencies_seconds.end());
      }
      std::cout << "itree-loadgen: " << total_requests << " frames over "
                << connections << " connection(s) in "
                << compact_number(wall, 3) << " s -> "
                << compact_number(total_requests / wall, 0) << " req/s";
      if (streamed) {
        std::cout << " (batch " << stream.batch << ", pipeline "
                  << stream.pipeline;
        if (open_loop_rate > 0.0) {
          std::cout << ", open-loop " << compact_number(open_loop_rate, 0)
                    << "/s offered";
        }
        std::cout << ')';
      }
      if (!replicas.empty()) {
        std::cout << " (" << replica_reads << " reads on "
                  << replicas.size() << " replica(s))";
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
                << compact_number(total_events / wall, 0) << " ("
                << total_events << " join/contribute events)\n"
                << (open_loop_rate > 0.0 ? "latency ms (from scheduled "
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
    net::Client verifier = net::Client::connect_with_retry(host, port);
    double worst_audit = 0.0;
    for (std::uint32_t campaign = 0; campaign < campaigns; ++campaign) {
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
  } catch (const std::exception& error) {
    std::cerr << "itree-loadgen: " << error.what() << '\n';
    return 1;
  }
}
