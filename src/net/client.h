// Blocking client for the reward-service wire protocol.
//
// One Client owns one TCP connection. The typed helpers (join,
// contribute, reward...) each send one request and block for its
// response, throwing ServiceError when the server answers with an
// error frame. The lower-level send_request / read_response pair
// supports pipelining — several requests in flight, responses read in
// order — which the load generator and the backpressure tests use.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "net/protocol.h"
#include "tree/tree.h"

namespace itree::net {

/// The server refused a request (bad participant, unknown campaign...).
struct ServiceError : std::runtime_error {
  ServiceError(ErrorCode code, const std::string& message)
      : std::runtime_error(message), code(code) {}

  ErrorCode code;
};

/// Outcome of one EVENT_BATCH submission. The server applies events in
/// order until the first rejection: `results` holds one entry per
/// *applied* event (the assigned id for joins, 0 for contributions).
/// When complete() is false, the event at index results.size() was
/// rejected and error/message carry the cause; later events in the
/// batch were not applied.
struct BatchResult {
  std::uint32_t requested = 0;
  std::vector<std::uint64_t> results;
  ErrorCode error = ErrorCode::kNone;
  std::string message;
  /// Write-ack token of the last applied event (0 on in-memory servers).
  std::uint64_t seq = 0;

  bool complete() const { return results.size() == requested; }
};

class Client {
 public:
  /// Connects immediately; throws std::runtime_error on failure.
  Client(const std::string& host, std::uint16_t port);
  ~Client();

  /// Connects with bounded exponential backoff (10 ms doubling to
  /// 640 ms) on connection refusal/reset, for up to `max_wait_seconds`
  /// — tools no longer race server startup with sleeps. Throws the
  /// last connect error once the budget is spent. Thin wrapper over
  /// the shared `net::connect_with_retry` in net/retry.h.
  static Client connect_with_retry(const std::string& host,
                                   std::uint16_t port,
                                   double max_wait_seconds = 10.0);

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept;
  Client& operator=(Client&&) = delete;

  // --- Typed round trips --------------------------------------------

  /// Joins `campaign` under `referrer`; returns the assigned id.
  NodeId join(std::uint32_t campaign, NodeId referrer,
              double initial_contribution);
  void contribute(std::uint32_t campaign, NodeId participant,
                  double amount);
  double reward(std::uint32_t campaign, NodeId participant);
  /// Reward query carrying a read-your-writes token: on a replica the
  /// answer reflects at least sequence `min_seq` (a write ack's token),
  /// or ServiceError(kReplicaLagging) if the replica cannot catch up
  /// within its staleness bound. On a primary it behaves like reward().
  double reward_query_at(std::uint32_t campaign, NodeId participant,
                         std::uint64_t min_seq);
  /// Full reward vector (index = node id; entry 0 is the root's 0).
  std::vector<double> rewards(std::uint32_t campaign);
  /// Largest incremental-vs-batch divergence (see RewardService::audit).
  double audit(std::uint32_t campaign);
  StatsBody stats(std::uint32_t campaign);
  /// Submits many reward events in one EVENT_BATCH frame — one round
  /// trip and one response frame for the whole span. An
  /// in-protocol rejection is reported in the result, not thrown (the
  /// applied prefix is real state either way); wire-level failures
  /// still throw.
  BatchResult send_events(std::uint32_t campaign,
                          std::span<const BatchEvent> events);
  /// Live server-wide operational counters (SERVER_STATS round trip);
  /// does not disturb the serving loops.
  ServerStatsBody server_stats();
  /// The router's campaign -> shard map (SHARD_MAP round trip); a
  /// non-router server rejects the frame with kBadRequest.
  ShardMapBody shard_map();
  /// Asks the server to drain and exit; returns once acknowledged.
  void shutdown_server();

  // --- Pipelined / low-level access ---------------------------------

  /// One request, one response; throws ServiceError on error frames.
  Response call(const Request& request);

  /// Sends without waiting; pair with read_response() in FIFO order.
  void send_request(const Request& request);
  /// Blocks for the next response frame. Throws std::runtime_error if
  /// the server closes the connection, ProtocolError on wire garbage.
  Response read_response();
  /// read_response() bounded by `deadline` (monotonic_seconds() clock):
  /// std::nullopt when no byte of a frame arrived by then; a frame that
  /// has started arriving is read to its end. A frame the decoder
  /// already buffered is returned without waiting, and a past deadline
  /// still collects what the socket holds.
  std::optional<Response> read_response_until(double deadline);

  /// Writes raw bytes, bypassing the framing layer — lets tests inject
  /// malformed and truncated frames.
  void send_bytes(std::string_view bytes);

  /// Half-closes the write side (the server sees EOF mid-stream).
  void shutdown_write();

  /// Token of this connection's most recent acknowledged write (join /
  /// contribute / send_events), 0 before any durable write. Hand it to
  /// reward_query_at on a replica for read-your-writes.
  std::uint64_t last_write_seq() const { return last_write_seq_; }

 private:
  Response read_checked();
  void note_write_ack(const Response& response);

  int fd_ = -1;
  FrameDecoder decoder_;
  std::uint64_t last_write_seq_ = 0;
};

}  // namespace itree::net
