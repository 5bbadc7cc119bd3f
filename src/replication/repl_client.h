// Typed client for the replication frames (REPL_HELLO / REPL_SNAPSHOT /
// REPL_SEGMENT / REPL_HEARTBEAT). A replica is an ordinary pipelining
// client of the primary; this wrapper owns one connection and exposes
// the four exchanges with their decoded bodies.
#pragma once

#include <cstdint>
#include <string>

#include "net/client.h"

namespace itree::replication {

/// What REPL_HELLO reveals about the primary.
struct PrimaryInfo {
  std::uint32_t version = 0;
  std::uint32_t campaigns = 0;
  std::uint64_t committed_seq = 0;
  std::uint64_t min_available_seq = 0;
  std::string mechanism;  ///< Mechanism::display_name()
};

struct SnapshotFetch {
  std::uint64_t committed_seq = 0;
  std::string image;  ///< ITSNAP05 snapshot image
};

struct SegmentFetch {
  std::uint64_t committed_seq = 0;
  std::uint64_t min_available_seq = 0;
  std::string records;  ///< raw concatenated on-disk WAL record bytes
};

class ReplClient {
 public:
  /// Connects with bounded retry (the primary may still be starting).
  /// Throws std::runtime_error once the budget is spent.
  ReplClient(const std::string& host, std::uint16_t port,
             double connect_timeout_seconds = 10.0);

  /// Announces this replica (its last applied sequence) and returns
  /// the primary's identity. Throws net::ServiceError when the primary
  /// refuses (not durable, divergent histories).
  PrimaryInfo hello(std::uint64_t last_applied_seq);

  /// Fetches a full snapshot image at the primary's current watermark.
  SnapshotFetch fetch_snapshot();

  /// Fetches committed records from `from_seq` on (at most
  /// `max_records`). Throws net::ServiceError(kSeqCompacted) when the
  /// range was compacted away.
  SegmentFetch fetch_segment(std::uint64_t from_seq,
                             std::uint32_t max_records);

  /// Returns the primary's committed sequence.
  std::uint64_t heartbeat();

 private:
  net::Client client_;
};

}  // namespace itree::replication
