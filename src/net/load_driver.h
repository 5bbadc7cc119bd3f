// The one seeded load driver for the reward-service wire protocol,
// shared by itree-loadgen, bench_e14 and bench_e15.
//
// Connection c drives campaign (c % campaigns) from its own rng,
// base.fork(first_stream + c), on its own thread. With one connection
// per campaign every campaign therefore sees one deterministic event
// sequence, and the final reward digests depend only on the seed —
// never on the frame style, pipelining, pacing, reactor count or
// deployment (docs/protocol.md). That is the contract the CI smokes,
// scripts/perf_goldens/ and the BENCH digests assert.
//
// Request mixes (RequestMix; fixed presets, not user-settable):
//   * loadgen(): joins 0.55 (referrer: root 0.15, else one of this
//     connection's participants), contributions 0.5 of the rest, then
//     a REWARDS_BATCH full-vector read every 64th decision, otherwise
//     a REWARD point read 0.8 / STATS 0.2.
//   * service(): the same without the STATS draw (bench_e14).
//   * writes_only(join): joins with share `join`, contributions
//     otherwise, no queries (bench_e15 ingest; e14's --shards pass).
//
// Frame styles:
//   * classic (batch == pipeline == 1, closed loop): one JOIN /
//     CONTRIBUTE / query frame per decision, strict request/response.
//     Participant ids come from the join responses, so several
//     connections may share a campaign. With `replicas`, query frames
//     go round-robin to the replicas and reward queries become
//     REWARD_AT carrying the writer's last write-ack token, so every
//     read observes this writer's own events (read-your-writes).
//   * streamed (batch > 1, pipeline > 1 or rate > 0): runs of events
//     are coalesced into EVENT_BATCH frames of up to `batch` events
//     and up to `pipeline` frames stay in flight. Join ids are not
//     awaited but predicted (the server assigns them sequentially per
//     campaign, starting at stats().participants + 1), so each
//     campaign needs exactly one writer; every prediction and the
//     kOkBatch status are verified against the response. With
//     rate > 0 the decisions arrive on a fixed open-loop schedule of
//     `rate` requests/s spread over the connections.
//
// Latency is per frame. Closed loop measures it from the frame's send;
// open loop measures it from the scheduled arrival of the frame's
// first decision, so server-side queueing under overload is charged
// honestly. Responses that arrive while the driver waits for the next
// arrival are settled at once, so a frame is never charged the gap.
// Every timestamp comes from a LoadClock (the monotonic clock unless a
// test injects its own), so the schedule arithmetic can be checked
// without depending on how fast the host answers.
//
// A failing connection (server error, lost connection, id-prediction
// miss) stops and records the error in the report; nothing is thrown
// out of a driver thread.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/endpoint.h"
#include "net/protocol.h"
#include "tree/tree.h"
#include "util/rng.h"

namespace itree::net {

/// One workload decision: a reward event or a query frame.
struct Decision {
  bool is_event = false;
  BatchEvent event;  ///< valid when is_event
  Request query;     ///< valid when !is_event (campaign left 0)
};

/// A seeded request mix (see the presets above).
class RequestMix {
 public:
  static RequestMix loadgen() { return RequestMix(0.55, true, true); }
  static RequestMix service() { return RequestMix(0.55, true, false); }
  static RequestMix writes_only(double join_share) {
    return RequestMix(join_share, false, false);
  }

  /// Draws decision `i` of a connection whose joined participants so
  /// far are `mine`; consumes the rng identically in every frame style.
  Decision next(Rng& rng, std::uint64_t i,
                const std::vector<NodeId>& mine) const;

 private:
  RequestMix(double join_share, bool queries, bool stats)
      : join_share_(join_share), queries_(queries), stats_(stats) {}

  double join_share_;
  bool queries_;  ///< false: contribute whenever not joining
  bool stats_;    ///< draw REWARD 0.8 vs STATS; false: always REWARD
};

/// Per-connection or merged outcome of a run.
struct LoadReport {
  std::vector<double> latencies_seconds;  ///< one per frame
  std::uint64_t frames = 0;         ///< frames sent (a batch counts 1)
  std::uint64_t events = 0;         ///< joins + contributions sent
  std::uint64_t replica_reads = 0;  ///< queries sent to replicas
  double wall_seconds = 0.0;        ///< merged report: whole run
  std::string error;  ///< first connection error; empty on success
};

/// The time source of a run: latency timestamps and the open-loop
/// schedule. Called from every connection's thread.
class LoadClock {
 public:
  /// Current time in seconds.
  virtual double now() const = 0;
  /// Blocks until now() >= `t`.
  virtual void sleep_until(double t) const = 0;
  /// The monotonic_seconds() deadline up to which the driver reads
  /// responses while it waits for time `t` (the next arrival).
  virtual double read_deadline(double t) const = 0;

 protected:
  ~LoadClock() = default;
};

/// monotonic_seconds(), with real sleeps: the clock of every real run.
const LoadClock& monotonic_clock();

/// Most decisions per connection: the driver reserves every latency
/// sample up front (8 B each, 800 MB per connection at the cap).
inline constexpr std::uint64_t kMaxRequests = 100'000'000;

/// Most frames one connection keeps in flight. Each holds its predicted
/// results until answered; a deeper window only queues behind the
/// daemon's slow-reader backpressure.
inline constexpr std::uint32_t kMaxPipeline = 1u << 16;

struct LoadDriver {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::size_t connections = 1;
  std::uint32_t campaigns = 1;
  std::uint64_t requests = 0;  ///< decisions per connection
  RequestMix mix = RequestMix::loadgen();
  std::uint32_t batch = 1;
  std::uint32_t pipeline = 1;
  double rate = 0.0;  ///< open-loop requests/s over all connections
  std::vector<Endpoint> replicas;  ///< classic style only
  std::uint64_t first_stream = 0;  ///< connection c uses fork(first + c)

  bool streamed() const { return batch > 1 || pipeline > 1 || rate > 0.0; }

  /// Runs every connection on its own thread and merges the reports.
  LoadReport run(const Rng& base,
                 const LoadClock& clock = monotonic_clock()) const;
};

}  // namespace itree::net
