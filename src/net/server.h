// Multi-reactor epoll reward-service daemon core.
//
// One Server hosts N campaigns behind `config.reactors` reactor
// threads. Each reactor runs its own net::EventLoop (net/event_loop.h),
// which owns the transport: the port-sharing listener, sessions,
// in-order response release, backpressure, the idle sweep and the
// drain. A reactor applies its own sessions' requests, whatever their
// campaign: every campaign has one mutex, taken inside
// Server::apply_request, so a campaign's events apply one at a time in
// the order the reactors reach them, and a query always reads a state
// between two events. A replica's puller applies shipped records
// under the same lock (Server::apply_shipped).
//
// Each tick applies the decoded requests in arrival order, each in
// full (an EVENT_BATCH frame's events one by one), and group-commits
// the storage engine *before* any response is flushed
// (ack-after-durable). Campaigns are disjoint state, so with one
// connection per campaign the whole deployment is bit-deterministic at
// any reactor count — which the loopback tests and bench_e14 assert.
//
// Beyond the transport guarantees (tests/net_test.cpp): a malformed
// payload gets an error frame and the session stays open; an
// EVENT_BATCH frame is all-or-nothing at the framing layer; and
// request_shutdown() (async-signal-safe) also checkpoints the storage
// engine when one is configured before run() returns.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/mechanism.h"
#include "net/protocol.h"
#include "server/event_log.h"
#include "storage/storage.h"

namespace itree::net {

class Reactor;  // internal to server.cpp

/// The stream of primary records feeding a replica server.
/// Implemented by replication::ReplicaSync (src/replication); the
/// interface lives here so net does not depend on the replication
/// library. Its puller thread applies every shipped record through
/// Server::apply_shipped, then advances applied_floor() and wakes the
/// reactors, so parked REWARD_AT reads are re-checked.
class ReplicaFeed {
 public:
  virtual ~ReplicaFeed() = default;

  /// Starts the shipping thread; it calls `wake_reactors` after each
  /// applied batch. Called by Server::run() before the reactors start.
  virtual void start(std::function<void()> wake_reactors) = 0;
  /// Stops and joins the shipping thread (idempotent).
  virtual void stop() = 0;
  /// Every record at or below it is applied and visible to queries on
  /// every campaign.
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
  /// its own epoll loop. Each applies the requests of the sessions it
  /// accepted, for any campaign, under that campaign's lock.
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
  /// kNotPrimary redirect, `feed` applies the primary's records, and
  /// REWARD_AT queries whose token is beyond the applied floor wait up
  /// to `serve_stale_seconds` before bouncing with kReplicaLagging.
  /// Must be called before run(); the feed must outlive it.
  void attach_replica(ReplicaFeed* feed, double serve_stale_seconds);

  /// Applies one record shipped from the primary to its campaign,
  /// under the campaign's lock (any thread; the replica's puller).
  /// Throws when the service rejects it: the histories diverged.
  void apply_shipped(std::uint32_t campaign_index, const Event& event);

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

  /// Executes one campaign request under the campaign's lock (any
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
  /// One per campaign, held for each apply_request / apply_shipped;
  /// a cache line each, so reactors on different campaigns do not
  /// contend on one.
  struct alignas(64) CampaignLock {
    std::mutex mutex;
  };
  std::vector<CampaignLock> campaign_locks_;
  std::unique_ptr<storage::Storage> storage_;  ///< null when in-memory

  std::vector<std::unique_ptr<Reactor>> reactors_;
  /// counters() read count (ServerStatsBody::stats_seq); mutable
  /// because reading the counters bumps it.
  mutable std::atomic<std::uint64_t> stats_seq_{0};
};

}  // namespace itree::net
