// The crash-safe storage engine behind the reward-service daemon.
//
// One Storage owns one data directory and the deployment's campaigns
// (RecordingService each). Every applied event is appended to a
// checksummed write-ahead log (wal.h); commit() is the group-commit
// point the server calls once per epoll tick — buffered records hit
// the disk in one write() and are fsynced per the configured policy
// *before* responses are flushed to clients, so an acknowledged event
// is as durable as the policy promises. Periodic snapshots
// (snapshot.h) checkpoint the full deployment and compact the log, so
// restart cost is O(snapshot + WAL tail).
//
// Recovery invariants (asserted by tests/storage_test.cpp and the CI
// crash smoke):
//   * Determinism: recover() replays the WAL tail through the same
//     RewardService apply path an uninterrupted run uses, each
//     campaign's events in sequence order (campaigns share no state),
//     so the recovered per-campaign reward vectors are
//     bit-identical to an uninterrupted run over the surviving event
//     prefix — at any thread count.
//   * Prefix durability: per campaign the surviving events are always
//     a prefix of the applied order (the WAL is append-only and a torn
//     tail is truncated, never skipped over).
//   * Fail-stop: a gap or mid-log tear (possible only after filesystem
//     level damage) raises std::runtime_error instead of silently
//     serving partial history.
//
// Layout of a data directory:
//     MANIFEST            deployment identity (text, written once)
//     wal-<seq16>.log     WAL segments, first contained seq in the name
//     snap-<seq16>.snap   snapshots, covered watermark in the name
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/mechanism.h"
#include "server/event_log.h"
#include "storage/snapshot.h"
#include "storage/wal.h"

namespace itree::storage {

struct StorageConfig {
  std::string data_dir;
  FsyncPolicy fsync = FsyncPolicy::kInterval;
  /// kInterval: maximum seconds of acknowledged-but-unsynced data.
  double fsync_interval_seconds = 0.02;
  /// Total events between automatic snapshots; 0 disables periodic
  /// snapshots (the server still writes one on graceful drain).
  std::uint64_t snapshot_every = 0;
  /// WAL segments rotate past this size.
  std::uint64_t segment_bytes = 8u << 20;
  /// Recorded in MANIFEST so `itree recover` can rebuild the mechanism
  /// without flags: the factory name (e.g. "geometric") and the raw
  /// --params text.
  std::string mechanism_name;
  std::string mechanism_params;
};

/// Newest WAL records kept in memory for replication shipping, so a
/// caught-up replica never touches the disk path.
inline constexpr std::size_t kReplTailRecords = 65536;

/// Deployment identity, persisted as the MANIFEST file.
struct Manifest {
  std::size_t campaigns = 0;
  std::string mechanism_name;   ///< factory name for make_mechanism()
  std::string mechanism_params; ///< raw parameter text ("" = defaults)
  std::string display;          ///< Mechanism::display_name(), validated
};

/// Parses `dir`/MANIFEST; throws std::runtime_error when missing or
/// malformed. Unknown keys are skipped, so directories written by
/// other versions stay readable.
Manifest read_manifest(const std::string& dir);

struct RecoveryReport {
  bool used_snapshot = false;
  std::uint64_t snapshot_seq = 0;
  std::uint64_t tail_records = 0;    ///< WAL records replayed
  std::uint64_t segments_scanned = 0;
  std::uint64_t truncated_bytes = 0; ///< torn tail discarded
  // Wall seconds per recovery stage; together at most the whole
  // recover_campaigns() call.
  double snapshot_s = 0.0;  ///< map + verify + adopt the newest snapshot
  double wal_scan_s = 0.0;  ///< read, CRC-check and split the WAL tail
  double replay_s = 0.0;    ///< apply the tail to the campaigns
  std::vector<std::string> warnings;
};

/// "snapshot_s <s>, wal_scan_s <s>, replay_s <s>": the stage split the
/// daemon and `itree recover` print after their recovery summary.
std::string stage_seconds_text(const RecoveryReport& report);

/// Result of the pure (read-only) recovery pass: the rebuilt
/// campaigns plus what a writable open would truncate.
struct RecoveryResult {
  std::vector<std::unique_ptr<RecordingService>> campaigns;
  RecoveryReport report;
  std::uint64_t next_seq = 1;
  /// Non-empty when the last segment has a torn tail that a writable
  /// open must truncate to `torn_valid_bytes`.
  std::string torn_segment_path;
  std::uint64_t torn_valid_bytes = 0;
};

/// Rebuilds deployment state from `dir` without modifying it: latest
/// valid snapshot, then the WAL tail through the normal apply path,
/// each campaign's events in sequence order (RewardService::replay).
/// Throws std::runtime_error on mechanism/campaign mismatch, WAL gaps,
/// or mid-log corruption.
RecoveryResult recover_campaigns(const Mechanism& mechanism,
                                 std::size_t campaign_count,
                                 const std::string& dir);

/// Restores one freshly-constructed campaign from a decoded snapshot —
/// the policy shared by recover_campaigns() and replica bootstrap:
/// check the aggregate kind byte, then move the tree and the blob into
/// the service (RewardService::adopt_snapshot). A kind-0 campaign
/// without a blob was written by a batch-mode service, which kept no
/// accumulators; the service rebuilds them from the tree in O(n). A
/// blob of another accumulator family, or a missing blob of any other
/// kind, can only come from a foreign image (a service's mode is a pure
/// function of its mechanism), so both throw std::runtime_error naming
/// campaign `index` and the two kinds instead of serving a state that
/// cannot resume bit for bit.
void restore_campaign_from_snapshot(RecordingService& campaign,
                                    CampaignSnapshot&& snap,
                                    std::size_t index);

struct StorageCounters {
  std::uint64_t events_appended = 0;
  std::uint64_t commits = 0;
  std::uint64_t snapshots_written = 0;
  std::uint64_t segments_deleted = 0;
};

/// One batch of the replication stream: committed WAL records starting
/// at the requested sequence, in their framed on-disk encoding (the
/// replica CRC-verifies with the same scanner recovery uses).
struct ReplicationWindow {
  std::string records;      ///< concatenated encode_wal_record() bytes
  std::uint32_t count = 0;  ///< records in `records`
  std::uint64_t committed_seq = 0;      ///< durable watermark now
  std::uint64_t min_available_seq = 1;  ///< oldest shippable seq; a
                                        ///< from_seq below it was
                                        ///< compacted away
};

class Storage {
 public:
  /// Opens (creating if needed) the data directory, writes or
  /// validates MANIFEST, recovers existing state, truncates a torn WAL
  /// tail, and positions the writer after the last durable record.
  /// Throws std::runtime_error on identity mismatch or I/O failure.
  /// The mechanism must outlive the storage.
  Storage(const Mechanism& mechanism, std::size_t campaigns,
          StorageConfig config);
  ~Storage();

  Storage(const Storage&) = delete;
  Storage& operator=(const Storage&) = delete;

  RecordingService& campaign(std::size_t index);
  const RecordingService& campaign(std::size_t index) const;
  std::size_t campaign_count() const { return campaigns_.size(); }

  /// Applies one event through campaign `index`'s normal apply path
  /// and logs it. Exceptions from the service propagate and nothing is
  /// logged. Safe to call concurrently for *different* campaigns (the
  /// WAL append is serialized internally, snapshots are excluded via a
  /// shared lock); per campaign the caller must apply serially, as
  /// net::Server's per-campaign lock does. When `out_seq` is non-null it
  /// receives the WAL sequence assigned to the event — the write-ack
  /// consistency token (durable only after the next commit()).
  std::optional<NodeId> apply(std::uint32_t index, const Event& event,
                              std::uint64_t* out_seq = nullptr);

  /// Replica-side ingest: logs a record shipped from the primary,
  /// asserting it continues the local sequence exactly (a gap or
  /// repeat means the streams diverged — fail stop). The caller is the
  /// single replication puller thread, which then applies the shipped
  /// event to its campaign.
  void append_replicated(const WalRecord& record);

  /// Primary-side shipping: committed records from `from_seq` on
  /// (served from the in-memory tail when possible, else re-read from
  /// segment files), at most `max_records` of them. An empty window
  /// with min_available_seq > from_seq means the range was compacted
  /// and the replica must re-bootstrap from a snapshot.
  ReplicationWindow read_replication_window(std::uint64_t from_seq,
                                            std::uint32_t max_records);

  /// Encodes a snapshot image of the full deployment at the current
  /// watermark *without* writing it to disk or compacting — the
  /// replica-bootstrap payload. Quiesces apply/commit (exclusive lock)
  /// and makes every assigned sequence durable first, so the image's
  /// last_seq equals committed_seq() on return.
  std::string encode_state_snapshot();

  /// Group commit: one write() for everything applied since the last
  /// commit, fsync per policy, segment rotation, and — when
  /// snapshot_every is due — a snapshot + log compaction. Safe to call
  /// concurrently with apply()/commit() on other reactor threads; each
  /// reactor calls it at the end of its tick, before flushing that
  /// tick's responses.
  void commit();

  /// Replica mode: shipped records are applied to the services outside
  /// the state lock, so commit()-triggered snapshots must not run.
  /// Call before any concurrent use.
  void disable_periodic_snapshots() { config_.snapshot_every = 0; }

  /// Snapshots all campaigns at the current watermark, then compacts:
  /// WAL segments fully covered by the snapshot are deleted and only
  /// the two newest snapshots are retained. Takes the exclusive lock
  /// (quiesces concurrent apply/commit) for the duration.
  void snapshot_now();

  const RecoveryReport& recovery() const { return recovery_; }
  const StorageCounters& counters() const { return counters_; }
  std::uint64_t next_seq() const { return writer_->next_seq(); }
  /// Highest sequence guaranteed written to the segment file (advanced
  /// by commit()/snapshots). Only committed records are shipped.
  std::uint64_t committed_seq() const {
    return committed_seq_.load(std::memory_order_acquire);
  }
  /// Oldest sequence still shippable (the first record on disk);
  /// committed_seq()+1 when the log is empty. Anything older was
  /// compacted into a snapshot.
  std::uint64_t min_available_seq() const;
  std::uint64_t wal_fsyncs() const { return writer_->fsync_count(); }
  const StorageConfig& config() const { return config_; }

 private:
  /// Snapshot body; caller holds state_mutex_ exclusively.
  void snapshot_locked();
  /// Every campaign's state at the current writer watermark; caller
  /// holds state_mutex_ exclusively.
  SnapshotData capture_locked() const;
  /// Copies the record the writer just buffered onto the replication
  /// tail; caller holds wal_mutex_.
  void push_repl_tail_locked(std::uint64_t seq);

  const Mechanism* mechanism_;
  StorageConfig config_;
  std::vector<std::unique_ptr<RecordingService>> campaigns_;
  std::unique_ptr<WalWriter> writer_;
  /// Two-level locking for the multi-reactor server. state_mutex_ is
  /// held shared by apply()/commit() (reactors run concurrently;
  /// per-campaign serialization is the caller's campaign lock)
  /// and exclusively by snapshots, which must observe every campaign
  /// at one quiesced watermark. wal_mutex_ nests inside it and
  /// serializes the cross-campaign WAL writer. Lock order:
  /// state_mutex_ then wal_mutex_, always.
  std::shared_mutex state_mutex_;
  std::mutex wal_mutex_;  ///< serializes cross-campaign WAL appends
  RecoveryReport recovery_;
  StorageCounters counters_;
  std::uint64_t events_since_snapshot_ = 0;
  /// Advanced after the writer's buffer reaches the file. Readable
  /// lock-free by the replication serving path and SERVER_STATS.
  std::atomic<std::uint64_t> committed_seq_{0};
  /// The newest records in their on-disk encoding, guarded by
  /// wal_mutex_; contiguous seqs from repl_tail_first_seq_, capped at
  /// kReplTailRecords.
  std::deque<std::array<char, kWalRecordBytes>> repl_tail_;
  std::uint64_t repl_tail_first_seq_ = 0;
};

}  // namespace itree::storage
