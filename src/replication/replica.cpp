#include "replication/replica.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <stdexcept>

#include "net/retry.h"
#include "storage/snapshot.h"
#include "storage/storage.h"

namespace itree::replication {
namespace {

std::string make_endpoint(const ReplicaOptions& options) {
  return options.primary_host + ":" + std::to_string(options.primary_port);
}

/// Highest sequence the directory's local history reaches: the newest
/// snapshot watermark or the last record of the last WAL segment,
/// whichever is later. 0 for an empty directory.
std::uint64_t local_tail_seq(const std::string& dir) {
  std::uint64_t tail = 0;
  const auto snapshots = storage::list_snapshots(dir);
  if (!snapshots.empty()) {
    tail = snapshots.back().first;
  }
  const auto segments = storage::list_wal_segments(dir);
  if (!segments.empty()) {
    // Streamed through the reader's window: only the last sequence is
    // kept, never the segment's records.
    const auto& [first_seq, name] = segments.back();
    storage::WalSegmentReader reader(dir + "/" + name);
    std::uint64_t wal_tail = first_seq - 1;
    storage::WalRecord record;
    while (reader.next(&record)) {
      wal_tail = record.seq;
    }
    tail = std::max(tail, wal_tail);
  }
  return tail;
}

}  // namespace

ShippedBatch decode_shipped_records(std::string_view blob,
                                    std::uint64_t expected_first_seq) {
  ShippedBatch batch;
  storage::WalScan scan = storage::scan_wal(blob);
  batch.clean = scan.clean;
  batch.reason = scan.truncation_reason;
  batch.records.reserve(scan.records.size());
  std::uint64_t expected = expected_first_seq;
  for (storage::WalRecord& record : scan.records) {
    if (record.seq != expected) {
      batch.clean = false;
      batch.reason = "sequence gap: expected " + std::to_string(expected) +
                     ", shipped record carries " +
                     std::to_string(record.seq);
      break;
    }
    batch.records.push_back(std::move(record));
    ++expected;
  }
  return batch;
}

PrimaryInfo probe_primary(const ReplicaOptions& options) {
  ReplClient client(options.primary_host, options.primary_port,
                    options.connect_timeout_seconds);
  return client.hello(0);
}

PrimaryInfo prepare_replica_data_dir(const std::string& data_dir,
                                     const ReplicaOptions& options) {
  namespace fs = std::filesystem;
  ReplClient client(options.primary_host, options.primary_port,
                    options.connect_timeout_seconds);
  const PrimaryInfo info = client.hello(0);

  fs::create_directories(data_dir);
  const bool bootstrapped = fs::exists(data_dir + "/MANIFEST");
  if (bootstrapped) {
    // A directory with a MANIFEST completed a previous bootstrap; keep
    // it if the primary still retains the records it is missing.
    if (local_tail_seq(data_dir) + 1 >= info.min_available_seq) {
      return info;
    }
  }
  // Fresh, torn mid-bootstrap, or stale beyond catch-up: start over.
  fs::remove_all(data_dir);
  fs::create_directories(data_dir);
  if (info.committed_seq > 0) {
    const SnapshotFetch fetch = client.fetch_snapshot();
    // Validate in place (header and every section CRC, without
    // decoding a single participant) and persist the primary's bytes
    // verbatim (temp + fsync + rename): no decode/re-encode round trip,
    // so local recovery mmap-adopts the image directly and stands the
    // replica's trees up straight over the mapping — no per-node work
    // between fetch and serving.
    const std::uint64_t last_seq =
        storage::validate_snapshot_image(fetch.image);
    storage::save_snapshot_image(data_dir, fetch.image, last_seq);
  }
  return info;
}

// --- ReplicaSync ----------------------------------------------------

ReplicaSync::ReplicaSync(const Mechanism& mechanism, net::Server& server,
                         ReplicaOptions options)
    : mechanism_(&mechanism),
      server_(&server),
      options_(std::move(options)),
      endpoint_(make_endpoint(options_)),
      storage_(server.mutable_storage()) {
  client_ = std::make_unique<ReplClient>(options_.primary_host,
                                         options_.primary_port,
                                         options_.connect_timeout_seconds);
  shipped_ = storage_ != nullptr ? storage_->committed_seq() : 0;
  const PrimaryInfo info = client_->hello(shipped_);
  if (info.mechanism != mechanism.display_name()) {
    throw std::runtime_error("replica: primary at " + endpoint_ +
                             " runs mechanism '" + info.mechanism +
                             "', this replica is configured for '" +
                             mechanism.display_name() + "'");
  }
  if (info.campaigns != server.campaign_count()) {
    throw std::runtime_error(
        "replica: primary hosts " + std::to_string(info.campaigns) +
        " campaigns, this replica is configured for " +
        std::to_string(server.campaign_count()));
  }
  primary_seq_.store(info.committed_seq, std::memory_order_release);

  if (storage_ == nullptr && shipped_ == 0 && info.committed_seq > 0 &&
      info.min_available_seq > 1) {
    // An in-memory replica with no local history and a partially
    // compacted primary log must start from a snapshot image. (When
    // the full log is still available, tail replay from seq 1 is
    // equivalent and avoids the large snapshot frame.)
    bootstrap_from_snapshot(info);
  }
  catch_up();
  applied_.store(shipped_, std::memory_order_release);
}

ReplicaSync::~ReplicaSync() { stop(); }

void ReplicaSync::bootstrap_from_snapshot(const PrimaryInfo& info) {
  const SnapshotFetch fetch = client_->fetch_snapshot();
  storage::SnapshotData data = storage::decode_snapshot(fetch.image);
  if (data.mechanism != mechanism_->display_name()) {
    throw std::runtime_error(
        "replica: snapshot image is for mechanism '" + data.mechanism +
        "', not '" + mechanism_->display_name() + "'");
  }
  if (data.campaigns.size() != server_->campaign_count()) {
    throw std::runtime_error(
        "replica: snapshot image holds " +
        std::to_string(data.campaigns.size()) + " campaigns, expected " +
        std::to_string(server_->campaign_count()));
  }
  for (std::size_t c = 0; c < data.campaigns.size(); ++c) {
    // Same policy as storage recovery: check the kind byte, then adopt.
    storage::restore_campaign_from_snapshot(server_->mutable_campaign(c),
                                            std::move(data.campaigns[c]), c);
  }
  shipped_ = data.last_seq;
  (void)info;
}

void ReplicaSync::catch_up() {
  while (true) {
    const std::uint64_t target =
        primary_seq_.load(std::memory_order_acquire);
    if (shipped_ >= target) {
      return;
    }
    const SegmentFetch fetch =
        client_->fetch_segment(shipped_ + 1, options_.fetch_max_records);
    primary_seq_.store(fetch.committed_seq, std::memory_order_release);
    ShippedBatch batch =
        decode_shipped_records(fetch.records, shipped_ + 1);
    if (batch.records.empty()) {
      if (!batch.clean) {
        throw std::runtime_error(
            "replica: primary shipped an invalid record batch during "
            "bootstrap: " +
            batch.reason);
      }
      return;  // nothing below the committed watermark left to ship
    }
    apply_batch(batch.records);
  }
}

void ReplicaSync::start(std::function<void()> wake_reactors) {
  wake_reactors_ = std::move(wake_reactors);
  stop_.store(false, std::memory_order_release);
  puller_ = std::thread(&ReplicaSync::pull_loop, this);
}

void ReplicaSync::stop() {
  stop_.store(true, std::memory_order_release);
  if (puller_.joinable()) {
    puller_.join();
  }
}

std::uint64_t ReplicaSync::applied_floor() const {
  return applied_.load(std::memory_order_acquire);
}

std::uint64_t ReplicaSync::primary_seq() const {
  return primary_seq_.load(std::memory_order_acquire);
}

std::uint64_t ReplicaSync::records_shipped() const {
  return records_shipped_.load(std::memory_order_relaxed);
}

const std::string& ReplicaSync::primary_endpoint() const {
  return endpoint_;
}

bool ReplicaSync::failed() const {
  return failed_.load(std::memory_order_acquire);
}

std::string ReplicaSync::last_error() const {
  std::lock_guard lock(error_mutex_);
  return last_error_;
}

void ReplicaSync::fatal(const std::string& reason) {
  {
    std::lock_guard lock(error_mutex_);
    last_error_ = reason;
  }
  failed_.store(true, std::memory_order_release);
}

void ReplicaSync::apply_batch(
    const std::vector<storage::WalRecord>& records) {
  // Persist first: the applied floor published below is a durability
  // promise (a REWARD_AT token at or below it must survive a replica
  // restart on durable replicas).
  for (const storage::WalRecord& record : records) {
    if (record.campaign >= server_->campaign_count()) {
      throw std::runtime_error(
          "replica: shipped record for unknown campaign " +
          std::to_string(record.campaign));
    }
    if (storage_ != nullptr) {
      storage_->append_replicated(record);  // throws on divergence
    }
  }
  if (storage_ != nullptr) {
    storage_->commit();
  }
  // A shipped record was validated by the primary; a rejection here
  // means the histories diverged, and the throw fail-stops the replica
  // rather than serving silently wrong rewards.
  for (const storage::WalRecord& record : records) {
    server_->apply_shipped(record.campaign, record.event);
  }
  shipped_ = records.back().seq;
  records_shipped_.fetch_add(records.size(), std::memory_order_relaxed);
  applied_.store(shipped_, std::memory_order_release);
  if (wake_reactors_) {
    wake_reactors_();
  }
}

void ReplicaSync::pull_loop() {
  const auto poll =
      std::chrono::duration<double>(options_.poll_interval_seconds);
  // Shared retry discipline (net/retry.h); capped low — a replica
  // should notice a restarted primary quickly.
  net::Backoff backoff(std::chrono::milliseconds(10),
                       std::chrono::milliseconds(200));
  while (!stop_.load(std::memory_order_acquire)) {
    SegmentFetch fetch;
    bool idle = false;
    try {
      if (client_ == nullptr) {
        client_ = std::make_unique<ReplClient>(
            options_.primary_host, options_.primary_port,
            /*connect_timeout_seconds=*/1.0);
      }
      std::uint64_t committed =
          primary_seq_.load(std::memory_order_relaxed);
      if (committed <= shipped_) {
        committed = client_->heartbeat();
        primary_seq_.store(committed, std::memory_order_release);
      }
      if (committed <= shipped_) {
        idle = true;
      } else {
        fetch = client_->fetch_segment(shipped_ + 1,
                                       options_.fetch_max_records);
        primary_seq_.store(fetch.committed_seq,
                           std::memory_order_release);
      }
    } catch (const net::ServiceError& error) {
      if (error.code == net::ErrorCode::kSeqCompacted) {
        fatal("primary compacted past this replica's tail (" +
              std::string(error.what()) + "); re-bootstrap required");
        return;
      }
      if (error.code == net::ErrorCode::kRejected) {
        fatal(std::string("primary refused the replication stream: ") +
              error.what());
        return;
      }
      // kShuttingDown and friends: the primary may come back.
      client_.reset();
      backoff.sleep_next();
      continue;
    } catch (const std::exception&) {
      // Socket-level failure or wire garbage: reconnect and re-request
      // from the last good sequence.
      client_.reset();
      backoff.sleep_next();
      continue;
    }
    backoff.reset();
    if (idle || fetch.records.empty()) {
      std::this_thread::sleep_for(
          std::chrono::duration_cast<std::chrono::nanoseconds>(poll));
      continue;
    }
    ShippedBatch batch =
        decode_shipped_records(fetch.records, shipped_ + 1);
    if (batch.records.empty()) {
      // Nothing usable in the batch (torn at the first record or a
      // sequence gap): drop the connection and re-request.
      client_.reset();
      continue;
    }
    try {
      apply_batch(batch.records);
    } catch (const std::exception& error) {
      // Divergent histories or an unknown campaign: fail-stop. The
      // replica keeps serving its last applied state.
      fatal(error.what());
      return;
    }
    // A dirty tail (batch.clean == false) is not fatal: the clean
    // prefix was applied and the next fetch re-requests the rest.
  }
}

}  // namespace itree::replication
