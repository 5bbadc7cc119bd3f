// Replica-side machinery of the replication subsystem.
//
// A read replica is an ordinary server (net::Server) whose state is
// fed from a primary instead of from client writes. ReplicaSync is the
// bridge: it bootstraps the replica — snapshot image for a fresh
// start, local recovery plus WAL tail replay for a durable restart —
// and then runs a puller thread that continuously fetches committed
// WAL records over REPL_SEGMENT, persists them locally (durable
// replicas), and applies them to their campaigns under the server's
// campaign locks (net::Server::apply_shipped). All shipped bytes are
// the primary's on-disk record encoding, so the replica CRC-verifies
// them with the same scanner recovery uses (scan_wal); a torn or
// bit-flipped batch yields only its clean prefix and the remainder is
// re-requested from the last good sequence — never a crash, never a
// silent desync.
//
// Consistency. The puller applies a batch only after it is durable
// locally (storage commit), and advances the applied floor only after
// the whole batch is applied; REWARD_AT tokens are gated on that floor
// by the server. An unrecoverable condition (divergent histories,
// mechanism mismatch, compaction gap, a shipped record the service
// rejects) sets failed() and stops shipping — the replica keeps
// serving its last applied state rather than guessing (fail-stop).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "net/server.h"
#include "replication/repl_client.h"
#include "storage/wal.h"

namespace itree::replication {

struct ReplicaOptions {
  std::string primary_host = "127.0.0.1";
  std::uint16_t primary_port = 0;
  /// Idle poll cadence of the puller when caught up (heartbeats).
  double poll_interval_seconds = 0.002;
  /// Queries whose token is ahead of the applied floor wait this long
  /// before bouncing with kReplicaLagging (passed to attach_replica).
  double serve_stale_seconds = 1.0;
  /// Records per REPL_SEGMENT fetch.
  std::uint32_t fetch_max_records = 8192;
  /// Budget for the initial connect (the primary may still be starting).
  double connect_timeout_seconds = 10.0;
};

/// A validated batch of shipped records: the CRC-clean, contiguous
/// prefix of `blob` starting at expected_first_seq.
struct ShippedBatch {
  std::vector<storage::WalRecord> records;
  bool clean = true;   ///< blob ended on a boundary with no seq gap
  std::string reason;  ///< why validation stopped early
};

/// Validates a shipped blob: CRC-checks every record (storage::scan_wal)
/// and enforces sequence contiguity from `expected_first_seq`. Never
/// throws on arbitrary bytes (fuzz contract) — a torn, bit-flipped or
/// out-of-sequence blob simply yields the shorter clean prefix.
ShippedBatch decode_shipped_records(std::string_view blob,
                                    std::uint64_t expected_first_seq);

/// One REPL_HELLO round trip (with connect retry): the primary's
/// identity, campaign count and watermarks. Tools call this before
/// constructing the replica server so its config can agree with the
/// primary. Throws on connect failure or refusal.
PrimaryInfo probe_primary(const ReplicaOptions& options);

/// Prepares `data_dir` for a durable replica start. A directory whose
/// local history can still catch up (its tail is at or above the
/// primary's min_available_seq - 1) is kept untouched; a fresh,
/// incomplete (no MANIFEST — e.g. a crash mid-bootstrap) or
/// hopelessly stale one is wiped and re-seeded with a snapshot image
/// fetched from the primary, written durably (temp + fsync + rename).
/// MANIFEST is deliberately *not* written here — the storage engine
/// writes it when the server opens the directory, so a crash anywhere
/// during bootstrap leaves no MANIFEST and the next start re-seeds
/// from scratch. Returns the primary's hello. Throws on connect
/// failure, refusal, or I/O failure.
PrimaryInfo prepare_replica_data_dir(const std::string& data_dir,
                                     const ReplicaOptions& options);

/// The replica's feed implementation. Construct after the Server and
/// before run():
///
///     net::Server server(mechanism, config);
///     replication::ReplicaSync sync(mechanism, server, options);
///     server.attach_replica(&sync, options.serve_stale_seconds);
///     server.run();
///
/// The constructor performs the full bootstrap synchronously: hello +
/// identity validation, snapshot restore (fresh in-memory replicas),
/// then tail replay until the replica is caught up to the primary's
/// committed sequence at that moment. Server::run() then starts the
/// puller via start().
class ReplicaSync : public net::ReplicaFeed {
 public:
  /// Throws std::runtime_error on identity mismatch (mechanism or
  /// campaign count), net::ServiceError when the primary refuses
  /// (divergent histories, range compacted mid-bootstrap — wipe the
  /// data dir and start over), std::runtime_error on connect failure.
  ReplicaSync(const Mechanism& mechanism, net::Server& server,
              ReplicaOptions options);
  ~ReplicaSync() override;

  ReplicaSync(const ReplicaSync&) = delete;
  ReplicaSync& operator=(const ReplicaSync&) = delete;

  // --- net::ReplicaFeed ---------------------------------------------
  void start(std::function<void()> wake_reactors) override;
  void stop() override;
  std::uint64_t applied_floor() const override;
  std::uint64_t primary_seq() const override;
  std::uint64_t records_shipped() const override;
  const std::string& primary_endpoint() const override;
  bool failed() const override;

  /// Why shipping stopped (empty while healthy); for exit reports.
  std::string last_error() const;

 private:
  void bootstrap_from_snapshot(const PrimaryInfo& info);
  /// Fetches and applies records synchronously until caught up to the
  /// primary's committed sequence (constructor only, pre-threads).
  void catch_up();
  void pull_loop();
  /// Persists, applies and publishes one validated batch. Throws on
  /// divergence (fail-stop).
  void apply_batch(const std::vector<storage::WalRecord>& records);
  void fatal(const std::string& reason);

  const Mechanism* mechanism_;
  net::Server* server_;
  ReplicaOptions options_;
  std::string endpoint_;
  storage::Storage* storage_;  ///< null for an in-memory replica

  std::unique_ptr<ReplClient> client_;
  std::function<void()> wake_reactors_;  ///< empty until start()
  std::thread puller_;

  /// Last sequence applied (puller thread only outside the
  /// constructor).
  std::uint64_t shipped_ = 0;
  /// shipped_, published for the reactors' token gate.
  std::atomic<std::uint64_t> applied_{0};

  std::atomic<std::uint64_t> primary_seq_{0};
  std::atomic<std::uint64_t> records_shipped_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> failed_{false};
  mutable std::mutex error_mutex_;
  std::string last_error_;  ///< guarded by error_mutex_
};

}  // namespace itree::replication
