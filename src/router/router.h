// Campaign-sharded L7 router for shard-per-process write scale-out.
//
// A Router is a stateless proxy that speaks the length-prefixed wire
// protocol (net/protocol.h) on both sides. Campaign c is owned by shard
// (c mod shards.size()) — the same static modulo discipline the
// multi-reactor server uses for reactor ownership, one level up — and
// every routed frame is forwarded to the owning shard's `itree-served`
// worker process byte-for-byte: the router never re-encodes a request
// or a response, so write-ack sequence tokens, NOT_PRIMARY redirects
// and error frames all pass through unchanged. Tokens are therefore
// `(shard, seq)`-scoped: a REWARD_AT carrying a write ack's token
// routes to the same shard that issued it (same campaign, same modulo),
// so read-your-writes survives the indirection (docs/sharding.md).
//
// Each reactor (shared-nothing) runs its own
// net::EventLoop (net/event_loop.h) for the client sessions and keeps
// one pooled, pipelined connection per shard in the same epoll set.
// Workers answer strictly in request order per connection, so a FIFO of
// pending descriptors per backend maps each response back to its
// (session, request seq), and the loop's sequencer releases responses
// that complete out of order across shards in request order.
//
// Frames the router answers itself:
//   * SHARD_MAP  — the campaign -> shard map + per-shard endpoint,
//                  live health and supervisor restart count
//   * SERVER_STATS — async fan-out to every shard, summed into one
//                  body; per-shard stats_seq regressions (a worker
//                  restarted between polls) are detected and counted
//                  instead of silently summing reset counters
//   * SHUTDOWN   — acks, then drains the router itself
//   * REPL_*     — rejected: replication streams are per-shard state
//                  and must target a worker directly
//
// Backend failure: a dead worker fails fast — every in-flight request
// on the connection and every new frame for that shard is answered
// with a kShardDown error frame naming the shard, while the reactor
// reconnects in the background on the shared bounded-backoff schedule
// (net/retry.h). A supervisor restart notification (see
// router/supervisor.h) short-circuits the backoff: the stale
// connection is torn down and redialled immediately over a lock-free
// SPSC ring (net/spsc_ring.h) from the monitor thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/protocol.h"

namespace itree::router {

class RouterReactor;  // internal to router.cpp

struct RouterConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = kernel-assigned; see Router::port()
  /// Total campaigns across the deployment; campaign c is owned by
  /// shard (c mod shards.size()). Every worker is started with the
  /// full campaign count so ids cross the router untranslated.
  std::uint32_t campaigns = 1;
  /// Worker endpoints ("host:port"), one per shard, fixed for the
  /// router's lifetime. A restarted worker must come back on the same
  /// endpoint (the supervisor guarantees this).
  std::vector<std::string> shards;
  /// Router reactor threads, each with its own listener on the shared
  /// port and its own backend connection per shard.
  std::size_t reactors = 1;
  /// Sessions with no traffic for this long are closed; 0 disables.
  double idle_timeout_seconds = 0.0;
  /// Per-session write-buffer high-water mark (slow-reader
  /// backpressure; see net/event_loop.h).
  std::size_t max_write_buffer = 4u << 20;
  /// Per-backend outbound high-water mark: past it the reactor stops
  /// reading from every client session until the worker drains (coarse
  /// head-of-line backpressure; see docs/sharding.md).
  std::size_t max_backend_buffer = 4u << 20;
  /// Whether a SHUTDOWN frame drains the router.
  bool allow_remote_shutdown = true;
};

/// Monotonic operational counters, summed across reactors.
struct RouterCounters {
  std::uint64_t sessions_accepted = 0;
  std::uint64_t sessions_closed = 0;
  /// Frames forwarded to a shard worker.
  std::uint64_t requests_routed = 0;
  /// Backend response frames relayed to a client.
  std::uint64_t responses_relayed = 0;
  /// Frames the router answered itself (SHARD_MAP, SERVER_STATS,
  /// SHUTDOWN, validation errors).
  std::uint64_t requests_answered_locally = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t sessions_timed_out = 0;
  std::uint64_t backpressure_stalls = 0;
  /// kShardDown error frames issued (in-flight + fail-fast).
  std::uint64_t shard_down_errors = 0;
  /// Backend connections lost (worker crash, EOF, wire garbage).
  std::uint64_t backend_failures = 0;
  /// Successful backend (re)connects beyond the first per shard.
  std::uint64_t backend_reconnects = 0;
  /// Worker restarts detected via a stats_seq regression while
  /// aggregating SERVER_STATS.
  std::uint64_t stats_resets_detected = 0;
};

class Router {
 public:
  /// Binds and listens immediately on every reactor's socket (so
  /// port() is valid before run()). Backend connections are dialled
  /// asynchronously once run() starts. Throws std::runtime_error on
  /// socket/epoll setup failure, std::invalid_argument on a bad
  /// config (no shards, unparseable endpoint).
  explicit Router(RouterConfig config);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  std::uint16_t port() const { return port_; }

  /// Runs reactor 0 on the calling thread and the remaining reactors
  /// on dedicated threads until shutdown.
  void run();

  /// Requests a graceful drain: async-signal-safe (one eventfd write
  /// per reactor), callable from any thread or a signal handler.
  void request_shutdown();

  /// Supervisor integration: worker `shard` was just restarted — every
  /// reactor tears down its stale connection to it and redials
  /// immediately instead of waiting out TCP failure detection + the
  /// backoff schedule. Thread-safe (SPSC ring per reactor; this must
  /// only be called from one thread — the supervisor monitor).
  void note_shard_restarted(std::uint32_t shard);

  /// Supervisor integration: called while serving SHARD_MAP to report
  /// per-shard restart counts (must be thread-safe; default reports 0).
  void set_restart_counter(
      std::function<std::uint64_t(std::uint32_t)> counter);

  RouterCounters counters() const;
  std::size_t reactor_count() const;
  std::size_t shard_count() const { return config_.shards.size(); }

 private:
  friend class RouterReactor;

  RouterConfig config_;
  std::uint16_t port_ = 0;
  std::function<std::uint64_t(std::uint32_t)> restart_counter_;
  std::vector<std::unique_ptr<RouterReactor>> reactors_;
  /// stats_seq of the router's own aggregated SERVER_STATS bodies.
  std::atomic<std::uint64_t> stats_seq_{0};
};

}  // namespace itree::router
