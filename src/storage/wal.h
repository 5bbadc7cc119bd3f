// Write-ahead log: the durability backbone of the storage engine.
//
// On-disk format. A WAL is a sequence of segment files in a data
// directory, named `wal-<first-seq, 16 hex digits>.log`. A segment is a
// flat concatenation of records; one record is
//
//     u32 LE  payload length L   (kWalRecordHeaderBytes bytes of header)
//     u32 LE  CRC32C(payload)
//     L bytes payload
//
// with the payload itself
//
//     u64 seq | u8 kind (1=join, 2=contribute) | u32 campaign |
//     u64 node | f64 amount (raw IEEE-754 bits)
//
// Sequence numbers are global, strictly increasing, and contiguous
// across segments; per campaign the subsequence preserves apply order,
// which is what makes recovery deterministic.
//
// Torn tails. A crash can leave the last record half-written. The
// scanner stops at the first record whose header is incomplete, whose
// length prefix is impossible (> kMaxWalRecordBytes), whose CRC does
// not match, or whose payload does not parse — and reports the byte
// offset of the last good record boundary so recovery can truncate the
// tail. Everything before that offset is trusted (CRC-verified).
//
// Writing. WalWriter buffers appended records in memory; commit()
// write()s the buffer (one syscall per group of records — group
// commit) and fsyncs per the configured policy:
//     kAlways   fsync every commit (acknowledged => durable)
//     kInterval fsync when `fsync_interval_seconds` elapsed since the
//               last sync (bounded data loss, near-kNever throughput)
//     kNever    never fsync; the OS flushes on its own schedule
// Segments rotate at commit boundaries once they exceed
// `segment_bytes`, so snapshot-driven compaction can delete whole
// files.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "server/event.h"

namespace itree::storage {

inline constexpr std::size_t kWalRecordHeaderBytes = 8;
/// Every payload has the one fixed layout above (8+1+4+8+8 bytes), so
/// every record is exactly this long.
inline constexpr std::size_t kWalRecordBytes = kWalRecordHeaderBytes + 29;
/// Hard cap on one record's payload; a length prefix above this is
/// corruption (or a torn length), never a real record.
inline constexpr std::uint32_t kMaxWalRecordBytes = 1u << 16;

enum class FsyncPolicy {
  kAlways,
  kInterval,
  kNever,
};

/// Parses "always" / "interval" / "never"; throws std::invalid_argument
/// otherwise.
FsyncPolicy parse_fsync_policy(const std::string& text);
std::string to_string(FsyncPolicy policy);

/// One logged event: the campaign it belongs to plus its global
/// sequence number.
struct WalRecord {
  std::uint64_t seq = 0;
  std::uint32_t campaign = 0;
  Event event;

  bool operator==(const WalRecord&) const = default;
};

/// Encodes one record in the framed on-disk form (header + payload).
std::string encode_wal_record(const WalRecord& record);

/// encode_wal_record() straight onto the end of `out`.
void append_wal_record(std::string& out, const WalRecord& record);

/// Result of scanning one segment's bytes.
struct WalScan {
  std::vector<WalRecord> records;  ///< every CRC-verified record, in order
  std::uint64_t valid_bytes = 0;   ///< offset of the last good boundary
  bool clean = true;               ///< file ended exactly on a boundary
  std::string truncation_reason;   ///< why scanning stopped early
};

/// Streams the records of one segment, verified one at a time, with
/// the scanner's checks and stopping rules: a segment yields exactly
/// the records, valid_bytes, clean and truncation_reason scan_wal()
/// reports for its bytes. A file is read through a bounded window, so
/// recovery holds one window of the segment, never the whole file; a
/// record that straddles the window's end is slid to its front and
/// completed by the next read.
class WalSegmentReader {
 public:
  /// Default read window of a segment file.
  static constexpr std::size_t kWindowBytes = 1u << 20;
  /// Smallest window: one record of the largest length a prefix may
  /// announce, so every record the scanner can accept fits.
  static constexpr std::size_t kMinWindowBytes =
      kWalRecordHeaderBytes + kMaxWalRecordBytes;

  /// Reads an in-memory segment image.
  explicit WalSegmentReader(std::string_view bytes);
  /// Opens a segment file, read through a window of `window_bytes`
  /// (at least kMinWindowBytes). Throws std::runtime_error when the
  /// file cannot be opened, or later read.
  explicit WalSegmentReader(const std::string& path,
                            std::size_t window_bytes = kWindowBytes);
  ~WalSegmentReader();

  WalSegmentReader(const WalSegmentReader&) = delete;
  WalSegmentReader& operator=(const WalSegmentReader&) = delete;

  /// The next CRC-verified record; false once the segment ended on a
  /// record boundary (clean()) or at the first record that failed a
  /// check (truncation_reason()). Never throws on arbitrary bytes.
  bool next(WalRecord* record);

  /// Offset just past the last record next() returned.
  std::uint64_t valid_bytes() const { return valid_bytes_; }
  bool clean() const { return clean_; }
  const std::string& truncation_reason() const { return truncation_reason_; }

 private:
  /// Reads until `size` bytes past the cursor are buffered or the file
  /// ended; true when they are.
  bool fill(std::size_t size);
  bool stop(std::string reason);

  std::string path_;
  int fd_ = -1;  ///< -1: in-memory image, all of it in view
  std::unique_ptr<char[]> window_;
  std::size_t window_bytes_ = 0;
  const char* data_ = nullptr;  ///< the window, or the in-memory image
  std::size_t begin_ = 0;       ///< cursor: the next record's first byte
  std::size_t end_ = 0;         ///< one past the last buffered byte
  bool at_eof_ = false;
  bool done_ = false;
  std::uint64_t valid_bytes_ = 0;
  bool clean_ = true;
  std::string truncation_reason_;
};

/// Scans a segment image. Never throws on arbitrary bytes: scanning
/// simply stops at the first invalid record (fuzz contract).
WalScan scan_wal(std::string_view bytes);

/// Reads and scans a segment file through WalSegmentReader's window.
/// Throws std::runtime_error only when the file cannot be opened/read
/// at all.
WalScan scan_wal_file(const std::string& path);

/// Segment file name for a given first sequence number.
std::string wal_segment_name(std::uint64_t first_seq);

/// `wal-*.log` files in `dir` as (first_seq, filename), sorted by seq.
/// Misnamed files are ignored.
std::vector<std::pair<std::uint64_t, std::string>> list_wal_segments(
    const std::string& dir);

/// Append-side of the WAL. Not thread-safe; Storage serializes access.
class WalWriter {
 public:
  /// Starts a fresh segment in `dir` whose first record will carry
  /// `next_seq`. The segment file is created lazily on first commit.
  /// Throws std::runtime_error on I/O failure.
  WalWriter(std::string dir, std::uint64_t next_seq, FsyncPolicy policy,
            double fsync_interval_seconds, std::uint64_t segment_bytes);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Buffers one event; assigns and returns its sequence number.
  std::uint64_t append(std::uint32_t campaign, const Event& event);

  /// The framed bytes the last append() buffered; valid until the next
  /// append() or commit().
  std::string_view last_record() const {
    return std::string_view(buffer_).substr(buffer_.size() - kWalRecordBytes);
  }

  /// Group commit: writes the buffered records, fsyncs per policy, and
  /// rotates the segment when it outgrew `segment_bytes`. Throws
  /// std::runtime_error on I/O failure (durability errors must not be
  /// silent).
  void commit();

  /// commit() plus an unconditional fsync (shutdown, pre-snapshot).
  void sync();

  /// sync() and close the active segment; the next append starts a new
  /// one. Snapshot compaction uses this so every existing segment file
  /// is frozen and safe to delete.
  void rotate();

  std::uint64_t next_seq() const { return next_seq_; }
  std::uint64_t bytes_appended() const { return bytes_appended_; }
  std::uint64_t fsync_count() const { return fsync_count_; }
  std::uint64_t segments_created() const { return segments_created_; }

 private:
  void open_segment();
  void close_segment();

  std::string dir_;
  FsyncPolicy policy_;
  double fsync_interval_seconds_;
  std::uint64_t segment_bytes_;

  std::string buffer_;           ///< encoded, not yet written records
  int fd_ = -1;                  ///< current segment, -1 until created
  std::string segment_path_;
  std::uint64_t segment_size_ = 0;
  std::uint64_t segment_first_seq_ = 1;  ///< name of the open/next segment
  std::uint64_t next_seq_ = 1;
  std::uint64_t bytes_appended_ = 0;
  std::uint64_t fsync_count_ = 0;
  std::uint64_t segments_created_ = 0;
  double last_sync_ = 0.0;
  bool dirty_since_sync_ = false;
};

}  // namespace itree::storage
