// Campaign snapshots: checkpointed deployment state for log compaction.
//
// A snapshot captures every campaign of a deployment at one WAL
// watermark: all events with seq <= last_seq are reflected, so restart
// cost becomes O(snapshot + WAL tail) instead of O(all events).
//
// One on-disk generation, "ITSNAP05", named `snap-<last_seq, 16 hex>.snap`.
// The image is an immutable, page-aligned copy of the *entire* 6-column
// tree arena — parent, first_child, last_child, next_sibling, depth,
// contribution — each as its own page-aligned, individually CRC'd
// section, with the imaginary root's row included (node_count =
// participants + 1). A mapped image therefore needs *no link
// reconstruction at all*: Tree::adopt_columns points the arena columns
// straight into the read-only mapping (after a parallel O(1)-per-node
// read-only validation pass), and columns privatize
// copy-on-first-mutation, so a read-heavy replica serves reward queries
// directly from the page cache without ever copying the link columns.
// The image also carries each service's live FP accumulators
// (RewardService::export_aggregates()), so a restart resumes bit for
// bit —
//
//     header record (zero-padded to a page multiple):
//       8 bytes  magic "ITSNAP05"
//       u32 LE   header payload length
//       u32 LE   CRC32C(header payload)
//       payload:
//         u64 last_seq
//         u64 file size            (whole image; catches truncation
//                                   before any section is touched)
//         u32 page size            (kSnapshotPageSize)
//         u32 campaign count
//         u32 mechanism-name length + bytes   (display name, validated
//                                              against the live mechanism
//                                              on recovery)
//         per campaign:
//           u64 events applied
//           u64 node count         (INCLUDING the imaginary root)
//           u64 aggregate count
//           u64 skip count         (0 from this writer; node count in
//                                   images written while the arena kept
//                                   an ancestor-skip column. Readers
//                                   accept both, CRC-check the section
//                                   and never adopt it. The
//                                   prev_sibling section, likewise
//                                   empty from this writer, has no
//                                   count field: 0 when its offset
//                                   equals depth's, else node count)
//           u8  aggregate kind     (server::AggregateKind of the writer:
//                                   which accumulator family the blob is)
//           f64 total contribution (the writer's live accumulated C(T) —
//                                   history-dependent FP, adopted
//                                   bit-exactly for exact resumption)
//           u64 x 9  section offsets (parent, first_child, last_child,
//                                     next_sibling, prev_sibling, depth,
//                                     contribution, skip, aggregates;
//                                     each page-aligned)
//           u32 x 9  section CRC32Cs (same order)
//     sections (each page-aligned, zero-padded, in campaign order):
//       parent / first_child / last_child /
//       next_sibling / prev_sibling / depth   node count x u32 LE
//                                             (prev_sibling: see skip)
//       contribution                          node count x f64 LE
//       skip                                  skip count x u32 LE
//                                             (empty from this writer:
//                                             no page, offset shared
//                                             with the next section)
//       aggregates                            aggregate count x f64 LE
//
// On little-endian hardware the sections are exactly the live arena's
// columns, so encode is memcpy-class and load is an mmap plus one CRC
// walk.
//
// Snapshots are written to a temp file, fsynced, then renamed into
// place (with a directory fsync), so a crash mid-snapshot leaves the
// previous snapshot intact. The loaders validate magic, lengths and
// CRCs and throw std::invalid_argument on any mismatch — a torn,
// corrupted or pre-ITSNAP05 file is skipped in favour of an older one,
// never half-loaded.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "tree/tree.h"

namespace itree::storage {

inline constexpr std::string_view kSnapshotMagicV5 = "ITSNAP05";
/// Section alignment of the image.
inline constexpr std::uint32_t kSnapshotPageSize = 4096;

/// The one generation save_snapshot() writes; kept only because
/// perfbench/load.cpp still passes it explicitly.
enum class SnapshotFormat : std::uint8_t { kV5 = 5 };

struct CampaignSnapshot {
  std::uint64_t events_applied = 0;
  Tree tree;
  /// server::AggregateKind of the writing service.
  std::uint8_t aggregate_kind = 0;
  /// RewardService::export_aggregates() at snapshot time; empty for
  /// batch-mode services.
  std::vector<double> aggregates;
};

struct SnapshotData {
  std::uint64_t last_seq = 0;  ///< WAL records <= this are reflected
  std::string mechanism;       ///< Mechanism::display_name()
  std::vector<CampaignSnapshot> campaigns;
};

/// Encodes the full-arena page-aligned image (the prev-sibling and skip
/// sections are written empty).
std::string encode_snapshot_v5(const SnapshotData& data);

/// Decodes an in-memory image into trees that own copies of its
/// columns; throws std::invalid_argument on anything malformed (bad or
/// pre-ITSNAP05 magic, torn image, CRC mismatch, invalid tree). The
/// header and every section are CRC-verified.
SnapshotData decode_snapshot(std::string_view bytes);

/// Validates an image without building any tree: header, geometry and
/// every section CRC. Returns the image's last_seq; throws
/// std::invalid_argument on any mismatch. This is the replica-bootstrap
/// trust boundary: O(file) CRC scan, no O(n) participant decode.
std::uint64_t validate_snapshot_image(std::string_view bytes);

std::string snapshot_name(std::uint64_t last_seq);

/// `snap-*.snap` files in `dir` as (last_seq, filename), sorted by
/// seq ascending. Misnamed files are ignored.
std::vector<std::pair<std::uint64_t, std::string>> list_snapshots(
    const std::string& dir);

/// Writes `data` durably (temp + fsync + rename + dir fsync). Throws
/// std::runtime_error on I/O failure.
void save_snapshot(const std::string& dir, const SnapshotData& data,
                   SnapshotFormat format = SnapshotFormat::kV5);

/// Writes an already-encoded image durably under the canonical
/// `snap-<last_seq>.snap` name, byte-for-byte (replica bootstrap saves
/// the primary's image without a decode/re-encode round trip). The
/// caller is expected to have validated the bytes
/// (validate_snapshot_image).
void save_snapshot_image(const std::string& dir, std::string_view image,
                         std::uint64_t last_seq);

/// Loads the newest snapshot that validates; skipped corrupt or
/// pre-ITSNAP05 ones are reported through `warnings`. Returns nullopt
/// when none is usable. Images are loaded through an mmap
/// (MappedSnapshot) and their arena columns are adopted in place: the
/// returned trees serve directly from the mapping (which stays pinned
/// by their keepalive) until first mutation.
std::optional<SnapshotData> load_latest_snapshot(
    const std::string& dir, std::vector<std::string>* warnings);

/// The mapping (or buffered fallback) behind a MappedSnapshot, shared
/// so trees adopted out of the image can pin it past the
/// MappedSnapshot's own lifetime. Unmaps on destruction.
struct MappingHolder;

/// A snapshot file mapped read-only into memory. The constructor
/// maps the file (falling back to a buffered read when mmap is
/// unavailable), advises the kernel of the upcoming sequential scan
/// (madvise), and validates the header record — magic, length, CRC,
/// file size and section geometry — so last_seq()/mechanism() are
/// trustworthy immediately; section payloads stay untouched (and
/// unfaulted) until verify() or materialize() streams them. Throws
/// std::runtime_error on I/O failure, std::invalid_argument when the
/// file is not a well-formed ITSNAP05 image.
class MappedSnapshot {
 public:
  explicit MappedSnapshot(const std::string& path);
  ~MappedSnapshot();

  MappedSnapshot(MappedSnapshot&& other) noexcept;
  MappedSnapshot& operator=(MappedSnapshot&& other) noexcept;
  MappedSnapshot(const MappedSnapshot&) = delete;
  MappedSnapshot& operator=(const MappedSnapshot&) = delete;

  std::string_view bytes() const;
  std::uint64_t last_seq() const { return last_seq_; }
  const std::string& mechanism() const { return mechanism_; }

  /// CRC-verifies every section and caches the result, so verify() +
  /// materialize() (or repeated verify()) cost exactly one section-CRC
  /// walk over the image. Throws std::invalid_argument on any mismatch.
  void verify() const;

  /// Decodes the image into live arenas (verifies everything, like
  /// decode_snapshot; the section-CRC walk is shared with verify()). On
  /// little-endian hardware the returned trees *adopt* the mapped
  /// columns in place — zero per-node construction work — and keep the
  /// mapping alive for as long as they borrow from it.
  SnapshotData materialize() const;

 private:
  std::shared_ptr<const MappingHolder> holder_;
  std::uint64_t last_seq_ = 0;
  std::string mechanism_;
  /// Set once the section-CRC walk has passed (merged verify/decode
  /// CRC pass); the underlying image is immutable.
  mutable bool verified_ = false;
};

}  // namespace itree::storage
