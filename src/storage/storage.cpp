#include "storage/storage.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <span>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "storage/snapshot.h"
#include "util/bench_json.h"  // monotonic_seconds
#include "util/io.h"
#include "util/strings.h"

namespace itree::storage {
namespace {

/// The WAL tail's replay in bounded blocks. Records are buffered in
/// arrival order until kStreamBlock of them are held, then grouped per
/// campaign (a counting sort that keeps each campaign's order) and
/// replayed through RecordingService::replay, whose prefetching needs
/// runs of one campaign's events. Campaigns share no state, so this
/// rebuilds exactly what the global order does. A campaign whose replay
/// throws is skipped from then on; finish() rethrows the first error of
/// the lowest such campaign, the error replaying each campaign's whole
/// tail in campaign order raises, whatever the block boundaries.
class TailReplay {
 public:
  explicit TailReplay(
      const std::vector<std::unique_ptr<RecordingService>>& campaigns)
      : campaigns_(campaigns), next_(campaigns.size(), 0) {
    block_.reserve(kStreamBlock);
  }

  void push(std::uint32_t campaign, const Event& event) {
    block_.push_back({campaign, event});
    if (block_.size() == kStreamBlock) {
      flush();
    }
  }

  /// Replays what is buffered, then throws the deferred replay error.
  void finish() {
    flush();
    if (!failed_.empty()) {
      std::rethrow_exception(failed_.begin()->second);
    }
  }

  std::uint64_t records() const { return records_; }
  /// Wall seconds spent replaying so far.
  double seconds() const { return seconds_; }

 private:
  struct Entry {
    std::uint32_t campaign;
    Event event;
  };

  void flush() {
    if (block_.empty()) {
      return;
    }
    const double start = monotonic_seconds();
    touched_.clear();
    for (const Entry& entry : block_) {
      if (next_[entry.campaign]++ == 0) {
        touched_.push_back(entry.campaign);
      }
    }
    std::size_t at = 0;
    for (const std::uint32_t c : touched_) {
      const std::size_t count = next_[c];
      next_[c] = at;
      at += count;
    }
    grouped_.resize(block_.size());
    for (const Entry& entry : block_) {
      grouped_[next_[entry.campaign]++] = entry.event;
    }
    std::size_t first = 0;
    for (const std::uint32_t c : touched_) {
      const std::size_t last = next_[c];
      next_[c] = 0;
      if (!failed_.contains(c)) {
        try {
          campaigns_[c]->replay(
              std::span<const Event>(grouped_).subspan(first, last - first));
        } catch (...) {
          failed_.emplace(c, std::current_exception());
        }
      }
      first = last;
    }
    records_ += block_.size();
    block_.clear();
    seconds_ += monotonic_seconds() - start;
  }

  const std::vector<std::unique_ptr<RecordingService>>& campaigns_;
  std::vector<Entry> block_;
  std::vector<Event> grouped_;
  /// Campaigns of block_, in the order they first appear.
  std::vector<std::uint32_t> touched_;
  std::vector<std::size_t> next_;       ///< per campaign: count, then offset
  std::map<std::uint32_t, std::exception_ptr> failed_;
  std::uint64_t records_ = 0;
  double seconds_ = 0.0;
};

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

std::string manifest_path(const std::string& dir) { return dir + "/MANIFEST"; }

void write_manifest(const std::string& dir, const Manifest& manifest) {
  std::ostringstream out;
  out << "itree-storage v1\n";
  out << "campaigns " << manifest.campaigns << '\n';
  out << "mechanism " << manifest.mechanism_name << '\n';
  out << "params " << manifest.mechanism_params << '\n';
  out << "display " << manifest.display << '\n';
  const std::string text = out.str();
  const std::string path = manifest_path(dir);
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    fail("storage: cannot create " + tmp);
  }
  if (!io::write_all(fd, text.data(), text.size()) || !io::fsync_fd(fd)) {
    ::close(fd);
    ::unlink(tmp.c_str());
    fail("storage: write failed for " + tmp);
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    fail("storage: rename failed for " + path);
  }
  io::fsync_path(dir);
}

void truncate_file(const std::string& path, std::uint64_t bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  if (fd < 0) {
    fail("storage: cannot open " + path + " for truncation");
  }
  if (::ftruncate(fd, static_cast<off_t>(bytes)) != 0 || !io::fsync_fd(fd)) {
    ::close(fd);
    fail("storage: cannot truncate " + path);
  }
  ::close(fd);
}

}  // namespace

Manifest read_manifest(const std::string& dir) {
  std::ifstream in(manifest_path(dir));
  if (!in) {
    throw std::runtime_error("storage: no MANIFEST in " + dir +
                             " (not a data directory?)");
  }
  std::string line;
  if (!std::getline(in, line) || line != "itree-storage v1") {
    throw std::runtime_error("storage: unsupported MANIFEST header in " + dir);
  }
  Manifest manifest;
  bool have_campaigns = false;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    const std::size_t space = line.find(' ');
    const std::string key = line.substr(0, space);
    const std::string value =
        space == std::string::npos ? "" : line.substr(space + 1);
    if (key == "campaigns") {
      char* end = nullptr;
      manifest.campaigns = std::strtoull(value.c_str(), &end, 10);
      if (end == nullptr || *end != '\0' || manifest.campaigns == 0) {
        throw std::runtime_error(
            "storage: bad campaign count in MANIFEST: '" + value + "'");
      }
      have_campaigns = true;
    } else if (key == "mechanism") {
      manifest.mechanism_name = value;
    } else if (key == "params") {
      manifest.mechanism_params = value;
    } else if (key == "display") {
      manifest.display = value;
    }
    // Unknown keys are tolerated so other layouts stay readable.
  }
  if (!have_campaigns || manifest.display.empty()) {
    throw std::runtime_error("storage: incomplete MANIFEST in " + dir);
  }
  return manifest;
}

std::string stage_seconds_text(const RecoveryReport& report) {
  return "snapshot_s " + compact_number(report.snapshot_s, 4) +
         ", wal_scan_s " + compact_number(report.wal_scan_s, 4) +
         ", replay_s " + compact_number(report.replay_s, 4);
}

void restore_campaign_from_snapshot(RecordingService& campaign,
                                    CampaignSnapshot&& snap,
                                    std::size_t index) {
  const AggregateKind service_kind = campaign.service().aggregate_kind();
  const auto expected_kind = static_cast<std::uint8_t>(service_kind);
  const bool foreign_blob =
      !snap.aggregates.empty() && snap.aggregate_kind != expected_kind;
  // A kind-0 image without a blob comes from a batch-mode writer, which
  // kept no accumulators: adopt_snapshot() rebuilds them from the tree.
  const bool missing_blob =
      snap.aggregates.empty() &&
      snap.aggregate_kind != static_cast<std::uint8_t>(AggregateKind::kNone);
  if (foreign_blob || missing_blob) {
    throw std::runtime_error(
        "storage: campaign " + std::to_string(index) +
        ": snapshot aggregate kind " + std::to_string(snap.aggregate_kind) +
        " with " + std::to_string(snap.aggregates.size()) +
        " values cannot restore a service of kind " +
        std::to_string(expected_kind) +
        "; refusing a restore that cannot resume bit for bit");
  }
  campaign.adopt_snapshot(std::move(snap.tree), snap.events_applied,
                          std::move(snap.aggregates));
}

RecoveryResult recover_campaigns(const Mechanism& mechanism,
                                 std::size_t campaign_count,
                                 const std::string& dir) {
  RecoveryResult result;
  result.campaigns.reserve(campaign_count);
  for (std::size_t c = 0; c < campaign_count; ++c) {
    result.campaigns.push_back(std::make_unique<RecordingService>(mechanism));
  }

  double stage_start = monotonic_seconds();
  std::uint64_t snapshot_seq = 0;
  auto snapshot = load_latest_snapshot(dir, &result.report.warnings);
  if (snapshot.has_value()) {
    if (snapshot->mechanism != mechanism.display_name()) {
      throw std::runtime_error("storage: data directory was written by '" +
                               snapshot->mechanism + "', not '" +
                               mechanism.display_name() + "'");
    }
    if (snapshot->campaigns.size() != campaign_count) {
      throw std::runtime_error(
          "storage: snapshot holds " +
          std::to_string(snapshot->campaigns.size()) +
          " campaigns, deployment expects " + std::to_string(campaign_count));
    }
    for (std::size_t c = 0; c < campaign_count; ++c) {
      restore_campaign_from_snapshot(*result.campaigns[c],
                                     std::move(snapshot->campaigns[c]), c);
    }
    snapshot_seq = snapshot->last_seq;
    result.report.used_snapshot = true;
    result.report.snapshot_seq = snapshot_seq;
  }
  // The aggregate engines took their blobs by move (TDRM's chain state
  // copied its three columns out of its blob); free what is left of
  // the decoded image before the tail replay grows the heap.
  snapshot.reset();
  result.report.snapshot_s = monotonic_seconds() - stage_start;

  const auto segments = list_wal_segments(dir);
  std::uint64_t expected_seq = snapshot_seq + 1;
  TailReplay tail(result.campaigns);
  for (std::size_t i = 0; i < segments.size(); ++i) {
    // A segment whose successor starts at or below the snapshot
    // watermark holds only snapshot-covered records; skip reading it.
    if (i + 1 < segments.size() && segments[i + 1].first <= snapshot_seq + 1) {
      continue;
    }
    stage_start = monotonic_seconds();
    const double replayed_before = tail.seconds();
    const std::string path = dir + "/" + segments[i].second;
    WalSegmentReader reader(path);
    ++result.report.segments_scanned;
    // Records are checked and replayed as they stream through the read
    // window, but a failure is raised only once the segment ended, in a
    // fixed order that does not depend on where the window or a replay
    // block stood: damage in a non-final segment first, then the first
    // sequence or campaign error, then the lowest campaign's first
    // replay error. Nothing is served before recovery returns, so
    // events replayed ahead of a failure are never seen.
    std::string failure;
    WalRecord record;
    while (reader.next(&record)) {
      if (!failure.empty() || record.seq <= snapshot_seq) {
        continue;  // failed already, or reflected in the snapshot
      }
      if (record.seq != expected_seq) {
        failure = "storage: WAL sequence gap in " + segments[i].second +
                  ": expected " + std::to_string(expected_seq) +
                  ", found " + std::to_string(record.seq);
      } else if (record.campaign >= campaign_count) {
        failure = "storage: WAL record for campaign " +
                  std::to_string(record.campaign) + " but deployment has " +
                  std::to_string(campaign_count);
      } else {
        tail.push(record.campaign, record.event);
        ++expected_seq;
      }
    }
    if (!reader.clean()) {
      if (i + 1 < segments.size()) {
        // A torn tail can only be the *last* thing written. Damage in
        // the middle of the log means committed history is missing;
        // skipping over it would silently diverge, so fail stop.
        throw std::runtime_error("storage: corruption inside non-final WAL "
                                 "segment " +
                                 segments[i].second + " (" +
                                 reader.truncation_reason() +
                                 "); refusing to skip committed history");
      }
      result.torn_segment_path = path;
      result.torn_valid_bytes = reader.valid_bytes();
      result.report.truncated_bytes =
          std::filesystem::file_size(path) - reader.valid_bytes();
      result.report.warnings.push_back("torn tail in " + segments[i].second +
                                       " (" + reader.truncation_reason() +
                                       "): " +
                                       std::to_string(
                                           result.report.truncated_bytes) +
                                       " bytes discarded");
    }
    if (!failure.empty()) {
      throw std::runtime_error(failure);
    }
    tail.finish();
    const double replayed = tail.seconds() - replayed_before;
    result.report.replay_s += replayed;
    result.report.wal_scan_s += monotonic_seconds() - stage_start - replayed;
  }
  result.report.tail_records = tail.records();
  result.next_seq = expected_seq;
  return result;
}

Storage::Storage(const Mechanism& mechanism, std::size_t campaigns,
                 StorageConfig config)
    : mechanism_(&mechanism), config_(std::move(config)) {
  if (campaigns == 0) {
    throw std::invalid_argument("Storage: need at least one campaign");
  }
  if (config_.data_dir.empty()) {
    throw std::invalid_argument("Storage: data_dir must not be empty");
  }
  std::filesystem::create_directories(config_.data_dir);

  if (std::filesystem::exists(manifest_path(config_.data_dir))) {
    const Manifest manifest = read_manifest(config_.data_dir);
    if (manifest.campaigns != campaigns) {
      throw std::runtime_error(
          "storage: data directory holds " +
          std::to_string(manifest.campaigns) + " campaigns, asked for " +
          std::to_string(campaigns));
    }
    if (manifest.display != mechanism.display_name()) {
      throw std::runtime_error("storage: data directory belongs to '" +
                               manifest.display + "', not '" +
                               mechanism.display_name() + "'");
    }
  } else {
    Manifest manifest;
    manifest.campaigns = campaigns;
    manifest.mechanism_name = config_.mechanism_name;
    manifest.mechanism_params = config_.mechanism_params;
    manifest.display = mechanism.display_name();
    write_manifest(config_.data_dir, manifest);
  }

  RecoveryResult recovered =
      recover_campaigns(mechanism, campaigns, config_.data_dir);
  campaigns_ = std::move(recovered.campaigns);
  recovery_ = std::move(recovered.report);
  if (!recovered.torn_segment_path.empty()) {
    truncate_file(recovered.torn_segment_path, recovered.torn_valid_bytes);
  }
  writer_ = std::make_unique<WalWriter>(
      config_.data_dir, recovered.next_seq, config_.fsync,
      config_.fsync_interval_seconds, config_.segment_bytes);
  committed_seq_.store(recovered.next_seq - 1, std::memory_order_release);
}

Storage::~Storage() = default;  // WalWriter's destructor flushes and syncs

RecordingService& Storage::campaign(std::size_t index) {
  return *campaigns_.at(index);
}

const RecordingService& Storage::campaign(std::size_t index) const {
  return *campaigns_.at(index);
}

std::optional<NodeId> Storage::apply(std::uint32_t index, const Event& event,
                                     std::uint64_t* out_seq) {
  // Shared lock: reactors apply concurrently (different campaigns);
  // only a snapshot needs the world stopped.
  const std::shared_lock<std::shared_mutex> state(state_mutex_);
  RecordingService& campaign = *campaigns_.at(index);
  // Validate-then-log: a rejected event must not reach the WAL, or
  // recovery would refuse to replay it.
  const std::optional<NodeId> id = campaign.apply(event);
  {
    const std::lock_guard<std::mutex> lock(wal_mutex_);
    const std::uint64_t seq = writer_->append(index, event);
    ++counters_.events_appended;
    ++events_since_snapshot_;
    push_repl_tail_locked(seq);
    if (out_seq != nullptr) {
      *out_seq = seq;
    }
  }
  return id;
}

void Storage::append_replicated(const WalRecord& record) {
  const std::shared_lock<std::shared_mutex> state(state_mutex_);
  const std::lock_guard<std::mutex> lock(wal_mutex_);
  if (writer_->next_seq() != record.seq) {
    throw std::runtime_error(
        "storage: shipped record seq " + std::to_string(record.seq) +
        " does not continue the local WAL at " +
        std::to_string(writer_->next_seq()) +
        "; replica and primary histories diverged");
  }
  writer_->append(record.campaign, record.event);
  ++counters_.events_appended;
  ++events_since_snapshot_;
  push_repl_tail_locked(record.seq);
}

void Storage::push_repl_tail_locked(std::uint64_t seq) {
  if (repl_tail_.empty()) {
    repl_tail_first_seq_ = seq;
  }
  const std::string_view record = writer_->last_record();
  std::copy(record.begin(), record.end(), repl_tail_.emplace_back().begin());
  if (repl_tail_.size() > kReplTailRecords) {
    repl_tail_.pop_front();
    ++repl_tail_first_seq_;
  }
}

std::uint64_t Storage::min_available_seq() const {
  const auto segments = list_wal_segments(config_.data_dir);
  return segments.empty() ? committed_seq() + 1 : segments.front().first;
}

ReplicationWindow Storage::read_replication_window(std::uint64_t from_seq,
                                                   std::uint32_t max_records) {
  ReplicationWindow window;
  window.committed_seq = committed_seq();
  if (from_seq == 0) {
    from_seq = 1;
  }
  if (max_records == 0) {
    max_records = 1;
  }
  {
    // Fast path: a caught-up replica's window lives in the in-memory
    // tail — no disk reads on the steady-state shipping path.
    const std::lock_guard<std::mutex> lock(wal_mutex_);
    if (!repl_tail_.empty() && from_seq >= repl_tail_first_seq_) {
      window.min_available_seq = repl_tail_first_seq_;
      // Committed records only: anything past committed_seq was
      // appended but is not yet durable, so it is never shipped.
      const std::uint64_t end =
          std::min({repl_tail_first_seq_ + repl_tail_.size(),
                    window.committed_seq + 1, from_seq + max_records});
      for (std::uint64_t seq = from_seq; seq < end; ++seq) {
        const auto& record = repl_tail_[seq - repl_tail_first_seq_];
        window.records.append(record.data(), record.size());
        ++window.count;
      }
      return window;
    }
  }
  // Slow path: a lagging replica reads straight from the segment
  // files. Concurrent compaction may delete a segment between listing
  // and scanning; serve what survived — the replica just asks again
  // and then sees the advanced min_available_seq.
  const auto segments = list_wal_segments(config_.data_dir);
  if (segments.empty()) {
    window.min_available_seq = window.committed_seq + 1;
    return window;
  }
  window.min_available_seq = segments.front().first;
  if (from_seq < window.min_available_seq) {
    return window;  // compacted away; replica must re-bootstrap
  }
  // Each segment streams through WalSegmentReader's window and the
  // read stops at max_records or the committed watermark, so a lagging
  // replica's fetch decodes what it ships, not whole segments.
  std::uint64_t expected = from_seq;
  bool done = false;
  for (std::size_t i = 0; i < segments.size() && !done; ++i) {
    // Skip segments wholly before the requested range.
    if (i + 1 < segments.size() && segments[i + 1].first <= from_seq) {
      continue;
    }
    try {
      WalSegmentReader reader(config_.data_dir + "/" + segments[i].second);
      WalRecord record;
      while (!done && reader.next(&record)) {
        if (record.seq < from_seq) {
          continue;
        }
        if (record.seq != expected || record.seq > window.committed_seq) {
          done = true;
          break;
        }
        append_wal_record(window.records, record);
        ++window.count;
        ++expected;
        done = window.count >= max_records || expected > window.committed_seq;
      }
    } catch (const std::runtime_error&) {
      break;  // deleted by concurrent compaction
    }
  }
  return window;
}

SnapshotData Storage::capture_locked() const {
  SnapshotData data;
  data.last_seq = writer_->next_seq() - 1;
  data.mechanism = mechanism_->display_name();
  data.campaigns.reserve(campaigns_.size());
  for (const auto& campaign : campaigns_) {
    CampaignSnapshot snap;
    snap.events_applied = campaign->service().events_applied();
    snap.tree = campaign->service().tree();
    snap.aggregate_kind =
        static_cast<std::uint8_t>(campaign->service().aggregate_kind());
    snap.aggregates = campaign->service().export_aggregates();
    data.campaigns.push_back(std::move(snap));
  }
  return data;
}

std::string Storage::encode_state_snapshot() {
  const std::unique_lock<std::shared_mutex> state(state_mutex_);
  {
    const std::lock_guard<std::mutex> lock(wal_mutex_);
    writer_->sync();
    committed_seq_.store(writer_->next_seq() - 1, std::memory_order_release);
  }
  return encode_snapshot_v5(capture_locked());
}

void Storage::commit() {
  bool snapshot_due = false;
  {
    const std::shared_lock<std::shared_mutex> state(state_mutex_);
    const std::lock_guard<std::mutex> lock(wal_mutex_);
    writer_->commit();
    committed_seq_.store(writer_->next_seq() - 1, std::memory_order_release);
    ++counters_.commits;
    snapshot_due = config_.snapshot_every > 0 &&
                   events_since_snapshot_ >= config_.snapshot_every;
  }
  if (snapshot_due) {
    const std::unique_lock<std::shared_mutex> state(state_mutex_);
    // Re-check: another reactor may have just snapshotted between the
    // shared and exclusive sections.
    if (events_since_snapshot_ >= config_.snapshot_every) {
      snapshot_locked();
    }
  }
}

void Storage::snapshot_now() {
  const std::unique_lock<std::shared_mutex> state(state_mutex_);
  snapshot_locked();
}

void Storage::snapshot_locked() {
  namespace fs = std::filesystem;
  // Flush + close the active segment first: after this every assigned
  // sequence number is on disk and every existing segment is frozen,
  // so the snapshot at next_seq-1 covers the entire WAL and all of it
  // can be compacted away.
  writer_->rotate();
  committed_seq_.store(writer_->next_seq() - 1, std::memory_order_release);

  const SnapshotData data = capture_locked();
  save_snapshot(config_.data_dir, data);
  ++counters_.snapshots_written;
  events_since_snapshot_ = 0;

  // Compaction: delete WAL segments covered by the snapshot and all
  // but the two newest snapshots. Failures here cost disk space, not
  // correctness (recovery filters snapshot-covered records), so they
  // are ignored.
  std::error_code ec;
  for (const auto& [first_seq, name] : list_wal_segments(config_.data_dir)) {
    if (first_seq <= data.last_seq &&
        fs::remove(config_.data_dir + "/" + name, ec)) {
      ++counters_.segments_deleted;
    }
  }
  auto snapshots = list_snapshots(config_.data_dir);
  while (snapshots.size() > 2) {
    fs::remove(config_.data_dir + "/" + snapshots.front().second, ec);
    snapshots.erase(snapshots.begin());
  }
  io::fsync_path(config_.data_dir);
}

}  // namespace itree::storage
