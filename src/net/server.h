// Multi-reactor epoll reward-service daemon core.
//
// One Server hosts N campaigns behind `config.reactors` shared-nothing
// reactor threads. Each reactor runs its own net::EventLoop
// (net/event_loop.h), which owns the transport: the port-sharing
// listener, sessions, in-order response release, backpressure, the idle
// sweep and the drain. Campaign c is owned by reactor (c mod reactors),
// and only that reactor applies c's events and queries — the hot loop
// never shares mechanism state. A request arriving on a session of
// another reactor is forwarded to the owner over a lock-free SPSC ring
// (one per ordered reactor pair; net/spsc_ring.h) and its response
// travels back the same way.
//
// Each tick groups the decoded requests by campaign, applies each
// request in full (an EVENT_BATCH frame's events one by one) and
// group-commits the storage engine *before* any response is flushed
// (ack-after-durable). Campaigns are disjoint state and within a
// campaign arrival order is preserved, so with one connection per
// campaign the whole deployment is bit-deterministic at any reactor or
// thread count — which the loopback tests and bench_e14 assert.
//
// Beyond the transport guarantees (tests/net_test.cpp): a malformed
// payload gets an error frame and the session stays open; an
// EVENT_BATCH frame is all-or-nothing at the framing layer; and
// request_shutdown() (async-signal-safe) also settles in-flight
// cross-reactor traffic and checkpoints the storage engine when one is
// configured before run() returns.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/mechanism.h"
#include "net/protocol.h"
#include "server/event_log.h"
#include "storage/storage.h"

namespace itree::net {

class Reactor;  // internal to server.cpp

/// The stream of primary records feeding a replica server's reactors.
/// Implemented by replication::ReplicaSync (src/replication); the
/// interface lives here so net does not depend on the replication
/// library. One consumer slot per reactor; campaign c's records go to
/// consumer (c mod reactors), watermark-only items go to every
/// consumer so lag floors advance even on reactors that own no
/// campaigns of the current batch.
class ReplicaFeed {
 public:
  struct Item {
    std::uint32_t campaign = 0;
    bool is_event = false;    ///< false: watermark advance only
    Event event;              ///< valid when is_event
    std::uint64_t through = 0;  ///< applied floor after this item
  };

  virtual ~ReplicaFeed() = default;

  /// Starts the shipping thread; `wakers[i]` pokes consumer i's
  /// reactor after a push. Called by Server::run() before the reactors
  /// start.
  virtual void start(std::vector<std::function<void()>> wakers) = 0;
  /// Stops and joins the shipping thread (idempotent).
  virtual void stop() = 0;
  /// Moves consumer `consumer`'s pending items into *out (appending).
  /// Returns false when there was nothing pending.
  virtual bool drain(std::size_t consumer, std::vector<Item>* out) = 0;
  /// Consumer `consumer` finished applying everything up to `through`.
  virtual void note_applied(std::size_t consumer, std::uint64_t through) = 0;
  /// min over consumers of their applied watermark — every record at
  /// or below it is visible to queries on every campaign.
  virtual std::uint64_t applied_floor() const = 0;
  /// The primary's committed sequence as of the last exchange.
  virtual std::uint64_t primary_seq() const = 0;
  virtual std::uint64_t records_shipped() const = 0;
  /// "host:port" of the primary, for write-redirect error messages.
  virtual const std::string& primary_endpoint() const = 0;
  /// True after an unrecoverable shipping failure (divergent
  /// histories, mechanism mismatch); the replica keeps serving its
  /// last applied state.
  virtual bool failed() const = 0;
};

struct ServerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = kernel-assigned; see Server::port()
  std::size_t campaigns = 1;
  /// Reactor threads, each with its own listener on the shared port and
  /// its own epoll loop. Campaign c is owned by reactor (c mod
  /// reactors). 1 preserves the classic single-loop behaviour
  /// (cross-reactor machinery idle).
  std::size_t reactors = 1;
  /// Sessions with no traffic for this long are closed; 0 disables.
  double idle_timeout_seconds = 0.0;
  /// Write-buffer high-water mark per session; beyond it the server
  /// stops reading from that session (slow-reader backpressure) until
  /// the buffer drains below half the mark.
  std::size_t max_write_buffer = 4u << 20;
  /// Whether a SHUTDOWN frame drains the server (a private deployment
  /// convenience; disable when clients are untrusted).
  bool allow_remote_shutdown = true;
  /// Crash-safe persistence, active when `storage.data_dir` is
  /// non-empty: state recovers from the data directory at startup,
  /// every accepted event is WAL-logged, and each reactor tick
  /// group-commits *before* its responses are flushed — an acknowledged
  /// event is as durable as the fsync policy promises. The `campaigns`
  /// count must agree with an existing data directory.
  storage::StorageConfig storage;
};

class Server {
 public:
  /// Binds and listens immediately on every reactor's socket (so
  /// port() is valid and clients may connect before run() starts).
  /// Throws std::runtime_error on any socket/epoll setup failure. The
  /// mechanism must outlive the server.
  Server(const Mechanism& mechanism, ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The actually bound port (resolves config.port == 0); shared by
  /// every reactor's listener.
  std::uint16_t port() const { return port_; }

  /// Runs reactor 0 on the calling thread and the remaining reactors
  /// on dedicated threads until shutdown; safe to call from a
  /// dedicated thread while clients connect from others.
  void run();

  /// Requests a graceful drain: async-signal-safe (one eventfd write
  /// per reactor), callable from any thread or a SIGTERM handler.
  void request_shutdown();

  /// Campaign state, for post-run inspection (equivalence tests, the
  /// daemon's exit report). Not synchronized with a running loop.
  const RecordingService& campaign(std::size_t index) const;
  std::size_t campaign_count() const { return campaigns_.size(); }

  /// The storage engine, or nullptr when running in-memory only.
  const storage::Storage* storage() const { return storage_.get(); }

  /// Turns this server into a read replica: writes bounce with a
  /// kNotPrimary redirect, `feed`'s records are applied by the owning
  /// reactors, and REWARD_AT queries whose token is beyond the applied
  /// floor wait up to `serve_stale_seconds` before bouncing with
  /// kReplicaLagging. Must be called before run(); the feed must
  /// outlive it. The feed's consumer count must equal reactor_count().
  void attach_replica(ReplicaFeed* feed, double serve_stale_seconds);

  /// Mutable campaign/storage access for replica bootstrap (snapshot
  /// restore + tail replay before run(); src/replication only).
  RecordingService& mutable_campaign(std::size_t index) {
    return *campaigns_.at(index);
  }
  storage::Storage* mutable_storage() { return storage_.get(); }

  /// The server-wide counters: each reactor's counters summed, plus
  /// the storage watermark and the replica's lag. Exact after run()
  /// returns; while the loops are live it is a relaxed-atomic snapshot
  /// — the body the SERVER_STATS message serves. Every call bumps
  /// stats_seq.
  ServerStatsBody counters() const;

  std::size_t reactor_count() const;

 private:
  friend class Reactor;

  /// Applies one event to a campaign — through the storage engine (WAL
  /// append) when durable, directly otherwise. Returns the assigned id
  /// for joins; `out_seq` (durable only) receives the WAL sequence —
  /// the write-ack consistency token.
  std::optional<NodeId> apply_event(std::uint32_t campaign_index,
                                    const Event& event,
                                    std::uint64_t* out_seq = nullptr);

  /// Executes one campaign-owning request (called only by the owning
  /// reactor, inside its tick).
  Response apply_request(const Request& request);

  /// Serves one REPL_* frame on the primary (any reactor thread; the
  /// storage engine's locking makes it safe).
  Response handle_replication(const Request& request);

  ServerConfig config_;
  std::uint16_t port_ = 0;
  const Mechanism* mechanism_ = nullptr;
  ReplicaFeed* replica_feed_ = nullptr;  ///< non-null: read replica
  double serve_stale_seconds_ = 1.0;

  /// Observers into either owned_campaigns_ or storage_'s campaigns.
  std::vector<RecordingService*> campaigns_;
  std::vector<std::unique_ptr<RecordingService>> owned_campaigns_;
  std::unique_ptr<storage::Storage> storage_;  ///< null when in-memory

  std::vector<std::unique_ptr<Reactor>> reactors_;
  /// counters() read count (ServerStatsBody::stats_seq); mutable
  /// because reading the counters bumps it.
  mutable std::atomic<std::uint64_t> stats_seq_{0};
};

}  // namespace itree::net
