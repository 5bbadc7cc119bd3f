#include "storage/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <stdexcept>

#include "storage/crc32c.h"
#include "util/bench_json.h"  // monotonic_seconds
#include "util/io.h"
#include "util/le_codec.h"

namespace itree::storage {
namespace {

constexpr std::uint8_t kKindJoin = 1;
constexpr std::uint8_t kKindContribute = 2;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

WalRecord decode_wal_payload(std::string_view payload) {
  le::ByteReader<std::invalid_argument> in(payload, "WAL record");
  WalRecord record;
  record.seq = in.u64();
  const std::uint8_t kind = in.u8();
  record.campaign = in.u32();
  const std::uint64_t node = in.u64();
  const double amount = in.f64();
  in.finish();
  if (node > std::numeric_limits<NodeId>::max()) {
    throw std::invalid_argument("WAL record: node id out of range");
  }
  switch (kind) {
    case kKindJoin:
      record.event = JoinEvent{static_cast<NodeId>(node), amount};
      break;
    case kKindContribute:
      record.event = ContributeEvent{static_cast<NodeId>(node), amount};
      break;
    default:
      throw std::invalid_argument("WAL record: unknown event kind");
  }
  return record;
}

}  // namespace

FsyncPolicy parse_fsync_policy(const std::string& text) {
  if (text == "always") {
    return FsyncPolicy::kAlways;
  }
  if (text == "interval") {
    return FsyncPolicy::kInterval;
  }
  if (text == "never") {
    return FsyncPolicy::kNever;
  }
  throw std::invalid_argument("fsync policy must be always|interval|never, got '" +
                              text + "'");
}

std::string to_string(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kAlways:
      return "always";
    case FsyncPolicy::kInterval:
      return "interval";
    case FsyncPolicy::kNever:
      return "never";
  }
  return "?";
}

void append_wal_record(std::string& out, const WalRecord& record) {
  const std::size_t at = out.size();
  out.resize(at + kWalRecordHeaderBytes);  // length + CRC, filled below
  le::put_u64(out, record.seq);
  const auto* join = std::get_if<JoinEvent>(&record.event);
  const auto* contribute = std::get_if<ContributeEvent>(&record.event);
  le::put_u8(out, join != nullptr ? kKindJoin : kKindContribute);
  le::put_u32(out, record.campaign);
  le::put_u64(out, join != nullptr ? join->referrer : contribute->participant);
  le::put_f64(out, join != nullptr ? join->initial_contribution
                                   : contribute->amount);
  const std::string_view payload =
      std::string_view(out).substr(at + kWalRecordHeaderBytes);
  le::store(out.data() + at, static_cast<std::uint32_t>(payload.size()));
  le::store(out.data() + at + 4, crc32c(payload));
}

std::string encode_wal_record(const WalRecord& record) {
  std::string out;
  out.reserve(kWalRecordBytes);
  append_wal_record(out, record);
  return out;
}

WalSegmentReader::WalSegmentReader(std::string_view bytes)
    : data_(bytes.data()), end_(bytes.size()), at_eof_(true) {}

WalSegmentReader::WalSegmentReader(const std::string& path,
                                   std::size_t window_bytes)
    : path_(path),
      window_(new char[std::max(window_bytes, kMinWindowBytes)]),
      window_bytes_(std::max(window_bytes, kMinWindowBytes)) {
  data_ = window_.get();
  fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd_ < 0) {
    throw std::runtime_error("cannot open WAL segment " + path);
  }
}

WalSegmentReader::~WalSegmentReader() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

bool WalSegmentReader::fill(std::size_t size) {
  while (end_ - begin_ < size && !at_eof_) {
    if (end_ == window_bytes_) {
      // Slide the record in progress to the front of the window.
      std::memmove(window_.get(), window_.get() + begin_, end_ - begin_);
      end_ -= begin_;
      begin_ = 0;
    }
    const ssize_t n =
        ::read(fd_, window_.get() + end_, window_bytes_ - end_);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw std::runtime_error("cannot read WAL segment " + path_);
    }
    if (n == 0) {
      at_eof_ = true;
    }
    end_ += static_cast<std::size_t>(n);
  }
  return end_ - begin_ >= size;
}

bool WalSegmentReader::stop(std::string reason) {
  done_ = true;
  clean_ = false;
  truncation_reason_ = std::move(reason);
  return false;
}

bool WalSegmentReader::next(WalRecord* record) {
  if (done_) {
    return false;
  }
  if (!fill(kWalRecordHeaderBytes)) {
    if (end_ == begin_) {
      done_ = true;  // ended on a record boundary
      return false;
    }
    return stop("torn record header");
  }
  const char* header = data_ + begin_;
  const std::uint32_t length = le::load<std::uint32_t>(header);
  const std::uint32_t expected_crc = le::load<std::uint32_t>(header + 4);
  if (length == 0 || length > kMaxWalRecordBytes) {
    return stop("impossible length prefix " + std::to_string(length));
  }
  if (!fill(kWalRecordHeaderBytes + length)) {
    return stop("torn record payload");
  }
  // fill() may have slid the window.
  const std::string_view payload(data_ + begin_ + kWalRecordHeaderBytes,
                                 length);
  if (crc32c(payload) != expected_crc) {
    return stop("checksum mismatch");
  }
  try {
    *record = decode_wal_payload(payload);
  } catch (const std::invalid_argument& error) {
    return stop(error.what());
  }
  begin_ += kWalRecordHeaderBytes + length;
  valid_bytes_ += kWalRecordHeaderBytes + length;
  return true;
}

namespace {

WalScan scan_all(WalSegmentReader& reader) {
  WalScan scan;
  WalRecord record;
  while (reader.next(&record)) {
    scan.records.push_back(std::move(record));
  }
  scan.valid_bytes = reader.valid_bytes();
  scan.clean = reader.clean();
  scan.truncation_reason = reader.truncation_reason();
  return scan;
}

}  // namespace

WalScan scan_wal(std::string_view bytes) {
  WalSegmentReader reader(bytes);
  return scan_all(reader);
}

WalScan scan_wal_file(const std::string& path) {
  WalSegmentReader reader(path);
  return scan_all(reader);
}

std::string wal_segment_name(std::uint64_t first_seq) {
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%016llx.log",
                static_cast<unsigned long long>(first_seq));
  return name;
}

std::vector<std::pair<std::uint64_t, std::string>> list_wal_segments(
    const std::string& dir) {
  namespace fs = std::filesystem;
  std::vector<std::pair<std::uint64_t, std::string>> segments;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() != 4 + 16 + 4 || name.rfind("wal-", 0) != 0 ||
        name.substr(4 + 16) != ".log") {
      continue;
    }
    const std::string digits = name.substr(4, 16);
    char* end = nullptr;
    const std::uint64_t seq = std::strtoull(digits.c_str(), &end, 16);
    if (end == nullptr || *end != '\0') {
      continue;
    }
    segments.emplace_back(seq, name);
  }
  std::sort(segments.begin(), segments.end());
  return segments;
}

WalWriter::WalWriter(std::string dir, std::uint64_t next_seq,
                     FsyncPolicy policy, double fsync_interval_seconds,
                     std::uint64_t segment_bytes)
    : dir_(std::move(dir)),
      policy_(policy),
      fsync_interval_seconds_(fsync_interval_seconds),
      segment_bytes_(std::max<std::uint64_t>(segment_bytes, 1)),
      segment_first_seq_(next_seq),
      next_seq_(next_seq),
      last_sync_(monotonic_seconds()) {}

WalWriter::~WalWriter() {
  // Best effort: flush whatever is buffered so a graceful exit loses
  // nothing, but never throw from a destructor.
  try {
    sync();
  } catch (...) {
  }
  close_segment();
}

std::uint64_t WalWriter::append(std::uint32_t campaign,
                                const Event& event) {
  const std::uint64_t seq = next_seq_++;
  if (fd_ < 0 && buffer_.empty()) {
    segment_first_seq_ = seq;  // first record of the next segment
  }
  append_wal_record(buffer_, WalRecord{seq, campaign, event});
  return seq;
}

void WalWriter::open_segment() {
  // The segment is named after the first sequence number it holds.
  // O_TRUNC handles the restart-after-torn-tail case where a fully
  // invalid segment of the same name is being re-used.
  segment_path_ = dir_ + "/" + wal_segment_name(segment_first_seq_);
  fd_ = ::open(segment_path_.c_str(),
               O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    fail("WalWriter: cannot create " + segment_path_);
  }
  segment_size_ = 0;
  ++segments_created_;
  // Make the directory entry durable so recovery sees the new segment.
  io::fsync_path(dir_);
}

void WalWriter::close_segment() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void WalWriter::commit() {
  if (!buffer_.empty()) {
    if (fd_ < 0) {
      open_segment();
    }
    if (!io::write_all(fd_, buffer_.data(), buffer_.size())) {
      fail("WalWriter: write failed on " + segment_path_);
    }
    segment_size_ += buffer_.size();
    bytes_appended_ += buffer_.size();
    buffer_.clear();
    dirty_since_sync_ = true;
  }
  const double now = monotonic_seconds();
  const bool want_sync =
      dirty_since_sync_ &&
      (policy_ == FsyncPolicy::kAlways ||
       (policy_ == FsyncPolicy::kInterval &&
        now - last_sync_ >= fsync_interval_seconds_));
  if (want_sync) {
    if (!io::fsync_fd(fd_)) {
      fail("WalWriter: fsync failed on " + segment_path_);
    }
    ++fsync_count_;
    last_sync_ = now;
    dirty_since_sync_ = false;
  }
  if (fd_ >= 0 && segment_size_ >= segment_bytes_) {
    // Rotate at a record boundary; the next commit creates the next
    // segment, named after the next unassigned sequence number.
    if (dirty_since_sync_ && policy_ != FsyncPolicy::kNever) {
      if (!io::fsync_fd(fd_)) {
        fail("WalWriter: fsync failed on " + segment_path_);
      }
      ++fsync_count_;
      last_sync_ = monotonic_seconds();
      dirty_since_sync_ = false;
    }
    close_segment();
  }
}

void WalWriter::sync() {
  commit();
  if (fd_ >= 0 && dirty_since_sync_) {
    if (!io::fsync_fd(fd_)) {
      fail("WalWriter: fsync failed on " + segment_path_);
    }
    ++fsync_count_;
    last_sync_ = monotonic_seconds();
    dirty_since_sync_ = false;
  }
}

void WalWriter::rotate() {
  sync();
  close_segment();
}

}  // namespace itree::storage
