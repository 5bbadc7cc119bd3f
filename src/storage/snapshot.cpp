#include "storage/snapshot.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "storage/crc32c.h"
#include "util/check.h"
#include "util/io.h"
#include "util/le_codec.h"
#include "util/parallel.h"

namespace itree::storage {
namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

void reject(bool condition, const char* reason) {
  if (!condition) {
    throw std::invalid_argument(std::string("snapshot: ") + reason);
  }
}

constexpr std::uint64_t align_up(std::uint64_t v) {
  return (v + kSnapshotPageSize - 1) / kSnapshotPageSize * kSnapshotPageSize;
}

// ---- header -------------------------------------------------------------

/// Section order within one campaign's entry (offsets, CRCs, and the
/// on-disk layout all use it).
enum V5Section : std::size_t {
  kSecParent = 0,
  kSecFirstChild,
  kSecLastChild,
  kSecNextSibling,
  kSecPrevSibling,
  kSecDepth,
  kSecContribution,
  kSecSkip,
  kSecAggregates,
  kV5SectionCount,
};

constexpr std::array<std::uint64_t, kV5SectionCount> kV5ElemSize = {
    4, 4, 4, 4, 4, 4, 8, 4, 8};

constexpr std::array<const char*, kV5SectionCount> kV5CrcMismatch = {
    "parent section checksum mismatch",
    "first-child section checksum mismatch",
    "last-child section checksum mismatch",
    "next-sibling section checksum mismatch",
    "prev-sibling section checksum mismatch",
    "depth section checksum mismatch",
    "contribution section checksum mismatch",
    "skip section checksum mismatch",
    "aggregates section checksum mismatch"};

struct V5Campaign {
  std::uint64_t events_applied = 0;
  std::uint64_t node_count = 0;  ///< INCLUDING the imaginary root
  std::uint64_t aggregate_count = 0;
  /// 0 (this writer) or node_count (writers before the seven-column
  /// arena); the section is CRC-checked but never adopted.
  std::uint64_t skip_count = 0;
  /// Likewise for the prev-sibling section (writers before the six-column
  /// arena) and the depth section (writers before the five-column
  /// arena); not stored, but read off the section offsets.
  std::uint64_t prev_sibling_count = 0;
  std::uint64_t depth_count = 0;
  std::uint8_t aggregate_kind = 0;
  double total_contribution = 0.0;
  std::array<std::uint64_t, kV5SectionCount> offsets = {};
  std::array<std::uint32_t, kV5SectionCount> crcs = {};

  std::uint64_t section_count(std::size_t s) const {
    switch (s) {
      case kSecPrevSibling:
        return prev_sibling_count;
      case kSecDepth:
        return depth_count;
      case kSecSkip:
        return skip_count;
      case kSecAggregates:
        return aggregate_count;
      default:
        return node_count;
    }
  }
};

struct V5Header {
  std::uint64_t last_seq = 0;
  std::string mechanism;
  std::vector<V5Campaign> campaigns;
};

// Fixed bytes per campaign entry in the header payload.
constexpr std::size_t kV5CampaignEntryBytes =
    8 * 4 + 1 + 8 + kV5SectionCount * (8 + 4);

void check_section(std::uint64_t offset, std::uint64_t count,
                   std::uint64_t elem_size, std::uint64_t file_size) {
  reject(offset % kSnapshotPageSize == 0, "section offset not page-aligned");
  reject(offset <= file_size, "section offset beyond file");
  reject(count <= (file_size - offset) / elem_size,
         "section extends beyond file");
}

/// Parses and fully validates the header record: magic, lengths, header
/// CRC, declared file size, and every section's page-aligned geometry.
/// After this every section's (offset, count) pair is in bounds; section
/// bytes are vouched for by verify_v5_sections.
V5Header parse_v5_header(std::string_view bytes) {
  reject(bytes.size() >= kSnapshotMagicV5.size() + 8, "file too short");
  const std::string_view magic = bytes.substr(0, kSnapshotMagicV5.size());
  if (magic != kSnapshotMagicV5 && magic.starts_with("ITSNAP") &&
      std::isdigit(static_cast<unsigned char>(magic[6])) != 0 &&
      std::isdigit(static_cast<unsigned char>(magic[7])) != 0) {
    // An earlier generation: name it, so an operator sees why a
    // well-formed file was passed over.
    throw std::invalid_argument("snapshot: unsupported snapshot generation " +
                                std::string(magic) + "; only " +
                                std::string(kSnapshotMagicV5) + " is read");
  }
  reject(magic == kSnapshotMagicV5, "bad magic");
  const char* fixed = bytes.data() + kSnapshotMagicV5.size();
  const std::uint32_t length = le::load<std::uint32_t>(fixed);
  const std::uint32_t expected_crc = le::load<std::uint32_t>(fixed + 4);
  reject(length <= bytes.size() - kSnapshotMagicV5.size() - 8,
         "header length exceeds file");
  const std::string_view payload =
      bytes.substr(kSnapshotMagicV5.size() + 8, length);
  reject(crc32c(payload) == expected_crc, "header checksum mismatch");

  le::ByteReader<std::invalid_argument> in(payload, "snapshot header");
  V5Header header;
  header.last_seq = in.u64();
  const std::uint64_t file_size = in.u64();
  reject(file_size == bytes.size(), "file size mismatch (truncated image?)");
  reject(in.u32() == kSnapshotPageSize, "unsupported page size");
  const std::uint32_t campaigns = in.u32();
  const std::uint32_t name_length = in.u32();
  reject(name_length <= in.remaining(), "mechanism name truncated");
  header.mechanism = std::string(in.bytes(name_length));
  reject(campaigns <= in.remaining() / kV5CampaignEntryBytes,
         "campaign count exceeds header");
  header.campaigns.reserve(campaigns);
  for (std::uint32_t c = 0; c < campaigns; ++c) {
    V5Campaign campaign;
    campaign.events_applied = in.u64();
    campaign.node_count = in.u64();
    campaign.aggregate_count = in.u64();
    campaign.skip_count = in.u64();
    campaign.aggregate_kind = in.u8();
    campaign.total_contribution = in.f64();
    for (std::size_t s = 0; s < kV5SectionCount; ++s) {
      campaign.offsets[s] = in.u64();
    }
    for (std::size_t s = 0; s < kV5SectionCount; ++s) {
      campaign.crcs[s] = in.u32();
    }
    // An empty section shares its offset with the section after it.
    campaign.prev_sibling_count =
        campaign.offsets[kSecPrevSibling] == campaign.offsets[kSecDepth]
            ? 0
            : campaign.node_count;
    campaign.depth_count =
        campaign.offsets[kSecDepth] == campaign.offsets[kSecContribution]
            ? 0
            : campaign.node_count;
    reject(campaign.node_count >= 1, "missing the imaginary root row");
    reject(campaign.node_count < kInvalidNode, "impossible node count");
    reject(campaign.skip_count == 0 ||
               campaign.skip_count == campaign.node_count,
           "skip section count mismatch");
    reject(std::isfinite(campaign.total_contribution),
           "total contribution not finite");
    for (std::size_t s = 0; s < kV5SectionCount; ++s) {
      check_section(campaign.offsets[s], campaign.section_count(s),
                    kV5ElemSize[s], file_size);
    }
    header.campaigns.push_back(campaign);
  }
  in.finish();
  return header;
}

/// The section-CRC walk; sections are independent, so the checks run in
/// parallel (deterministic — every section's pass/fail is a pure
/// function of the bytes; on mismatch the first failure in submission
/// order is rethrown).
void verify_v5_sections(std::string_view bytes, const V5Header& header) {
  struct Job {
    std::uint64_t offset, length;
    std::uint32_t crc;
    std::size_t section;
  };
  std::vector<Job> jobs;
  jobs.reserve(header.campaigns.size() * kV5SectionCount);
  for (const V5Campaign& campaign : header.campaigns) {
    for (std::size_t s = 0; s < kV5SectionCount; ++s) {
      jobs.push_back({campaign.offsets[s],
                      campaign.section_count(s) * kV5ElemSize[s],
                      campaign.crcs[s], s});
    }
  }
  parallel_for(jobs.size(), [&](std::size_t i) {
    const Job& job = jobs[i];
    reject(crc32c(bytes.substr(job.offset, job.length)) == job.crc,
           kV5CrcMismatch[job.section]);
  });
}

}  // namespace

/// The image mapping is PROT_READ and MAP_PRIVATE, so none of its pages
/// is ever a private copy: every one is a clean page of the file, and
/// image files are never written in place (temp + rename, unlink only).
/// That makes dropping a copied range safe — a tree copy still
/// borrowing it re-faults the same bytes from the page cache (or from
/// the unlinked inode the mapping pins).
struct MappingHolder final : BorrowedStorage {
  void* map = nullptr;
  std::size_t size = 0;
  std::string fallback;  ///< used when mmap is unavailable

  MappingHolder() = default;
  MappingHolder(const MappingHolder&) = delete;
  MappingHolder& operator=(const MappingHolder&) = delete;
  ~MappingHolder() {
    if (map != nullptr) {
      ::munmap(map, size);
    }
  }

  std::string_view bytes() const {
    if (map != nullptr) {
      return {static_cast<const char*>(map), size};
    }
    return fallback;
  }

  /// Drops the whole pages of a copied section (its padding included)
  /// from the page tables. The buffered fallback is heap memory and is
  /// never released.
  void release(const void* data, std::size_t length) const override {
    if (map == nullptr) {
      return;
    }
    const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    const std::size_t offset =
        static_cast<const char*>(data) - static_cast<const char*>(map);
    const std::size_t lo = (offset + page - 1) / page * page;
    const std::size_t hi =
        std::min<std::size_t>(align_up(offset + length), size) / page * page;
    if (lo < hi) {
      ::madvise(static_cast<char*>(map) + lo, hi - lo, MADV_DONTNEED);
    }
  }
};

namespace {

/// Owned copies of one campaign's v5 sections — the keepalive of trees
/// adopted through the buffered (non-mmap or big-endian) path. These
/// trees get no BorrowedStorage: DONTNEED on heap memory would zero
/// bytes other borrowers still read.
struct OwnedV5Columns {
  std::vector<NodeId> parent, first_child, last_child, next_sibling;
  std::vector<double> contribution;
};

/// Builds the campaigns from an already CRC-verified v5 image. With
/// `mapping` set (the mmap path on little-endian hardware) the trees
/// adopt the image's columns *in place* — zero per-node construction
/// work, the mapping pinned by each tree's keepalive and told of every
/// column a tree later privatizes. Otherwise every section is copied
/// once (endian-converting if needed) into an owned holder the trees
/// borrow from instead. Every section not adopted in place is released
/// to the mapping, campaign by campaign, once every tree is adopted: a
/// release may drop a whole huge page, and a later campaign's adopt
/// scan would fault it, the released range included, back in.
SnapshotData build_v5(std::string_view bytes, const V5Header& header,
                      std::shared_ptr<const MappingHolder> mapping) {
  constexpr bool kLittleEndian =
      std::endian::native == std::endian::little;
  const bool in_place = kLittleEndian && mapping != nullptr;
  SnapshotData data;
  data.last_seq = header.last_seq;
  data.mechanism = header.mechanism;
  data.campaigns.reserve(header.campaigns.size());
  for (const V5Campaign& entry : header.campaigns) {
    CampaignSnapshot campaign;
    campaign.events_applied = entry.events_applied;
    campaign.aggregate_kind = entry.aggregate_kind;
    const std::size_t n = entry.node_count;
    Tree::Columns columns;
    if (in_place) {
      // Page-aligned sections in a page-aligned mapping: the arena
      // columns ARE these bytes.
      const char* base = bytes.data();
      const auto u32_at = [&](std::size_t s) {
        return std::span<const std::uint32_t>(
            reinterpret_cast<const std::uint32_t*>(base + entry.offsets[s]),
            n);
      };
      columns.parent = u32_at(kSecParent);
      columns.first_child = u32_at(kSecFirstChild);
      columns.last_child = u32_at(kSecLastChild);
      columns.next_sibling = u32_at(kSecNextSibling);
      columns.contribution = std::span<const double>(
          reinterpret_cast<const double*>(base +
                                          entry.offsets[kSecContribution]),
          n);
      // adopt_columns re-validates every link invariant (parallel,
      // read-only), so even a CRC-colliding corruption cannot stand up
      // an inconsistent tree.
      campaign.tree = Tree::adopt_columns(columns, entry.total_contribution,
                                          mapping, mapping.get());
    } else {
      auto owned = std::make_shared<OwnedV5Columns>();
      const auto copy = [&](auto& column, std::size_t s) {
        column.resize(entry.section_count(s));
        le::load_array(bytes.data() + entry.offsets[s], std::span(column));
        return std::span(std::as_const(column));
      };
      columns.parent = copy(owned->parent, kSecParent);
      columns.first_child = copy(owned->first_child, kSecFirstChild);
      columns.last_child = copy(owned->last_child, kSecLastChild);
      columns.next_sibling = copy(owned->next_sibling, kSecNextSibling);
      columns.contribution = copy(owned->contribution, kSecContribution);
      campaign.tree = Tree::adopt_columns(columns, entry.total_contribution,
                                          std::move(owned));
    }
    data.campaigns.push_back(std::move(campaign));
  }
  for (std::size_t c = 0; c < header.campaigns.size(); ++c) {
    const V5Campaign& entry = header.campaigns[c];
    std::vector<double>& aggregates = data.campaigns[c].aggregates;
    aggregates.resize(entry.aggregate_count);
    le::load_array(bytes.data() + entry.offsets[kSecAggregates],
                   std::span(aggregates));
    // Every section not adopted in place is done with: copied, or only
    // CRC-checked (prev_sibling, depth and skip, which only earlier
    // writers filled).
    for (std::size_t s = 0; s < kV5SectionCount && mapping != nullptr; ++s) {
      const bool adopted = s <= kSecNextSibling || s == kSecContribution;
      if (!(in_place && adopted)) {
        mapping->release(bytes.data() + entry.offsets[s],
                         entry.section_count(s) * kV5ElemSize[s]);
      }
    }
  }
  return data;
}

/// Temp + fsync + rename + dir-fsync write of one encoded image.
void write_image_durably(const std::string& dir, std::string_view image,
                         std::uint64_t last_seq) {
  const std::string final_path = dir + "/" + snapshot_name(last_seq);
  const std::string tmp_path = final_path + ".tmp";
  const int fd = ::open(tmp_path.c_str(),
                        O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    fail("snapshot: cannot create " + tmp_path);
  }
  if (!io::write_all(fd, image.data(), image.size()) || !io::fsync_fd(fd)) {
    ::close(fd);
    ::unlink(tmp_path.c_str());
    fail("snapshot: write failed for " + tmp_path);
  }
  ::close(fd);
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    ::unlink(tmp_path.c_str());
    fail("snapshot: rename failed for " + final_path);
  }
  // The rename itself must survive a crash too.
  io::fsync_path(dir);
}

}  // namespace

std::string encode_snapshot_v5(const SnapshotData& data) {
  // Pass 1: compute the layout. Header record first, then each
  // campaign's nine sections, every section page-aligned. The
  // prev-sibling, depth and skip sections are written empty (count 0):
  // they occupy no page, and each shares its offset with the section
  // after it.
  const std::size_t payload_size =
      8 + 8 + 4 + 4 + 4 + data.mechanism.size() +
      data.campaigns.size() * kV5CampaignEntryBytes;
  const std::uint64_t header_bytes =
      align_up(kSnapshotMagicV5.size() + 8 + payload_size);
  std::vector<V5Campaign> layout(data.campaigns.size());
  std::uint64_t cursor = header_bytes;
  for (std::size_t c = 0; c < data.campaigns.size(); ++c) {
    V5Campaign& entry = layout[c];
    entry.node_count = data.campaigns[c].tree.node_count();
    entry.aggregate_count = data.campaigns[c].aggregates.size();
    for (std::size_t s = 0; s < kV5SectionCount; ++s) {
      entry.offsets[s] = cursor;
      cursor += align_up(entry.section_count(s) * kV5ElemSize[s]);
    }
  }
  const std::uint64_t file_size = cursor;

  // Pass 2: fill the sections (zero padding comes free from resize),
  // checksumming each one for the header table. The sections are the
  // whole arena columns, imaginary root row included, so a reader can
  // adopt them in place.
  std::string out(file_size, '\0');
  std::string payload;
  payload.reserve(payload_size);
  le::put_u64(payload, data.last_seq);
  le::put_u64(payload, file_size);
  le::put_u32(payload, kSnapshotPageSize);
  le::put_u32(payload, static_cast<std::uint32_t>(data.campaigns.size()));
  le::put_u32(payload, static_cast<std::uint32_t>(data.mechanism.size()));
  payload += data.mechanism;
  for (std::size_t c = 0; c < data.campaigns.size(); ++c) {
    const CampaignSnapshot& campaign = data.campaigns[c];
    const Tree& tree = campaign.tree;
    const V5Campaign& entry = layout[c];
    const auto store = [&](std::size_t s, auto values) {
      le::store_array(out.data() + entry.offsets[s], values);
    };
    store(kSecParent, tree.parent_array());
    store(kSecFirstChild, tree.first_child_array());
    store(kSecLastChild, tree.last_child_array());
    store(kSecNextSibling, tree.next_sibling_array());
    store(kSecContribution, tree.contribution_array());
    store(kSecAggregates, std::span<const double>(campaign.aggregates));
    le::put_u64(payload, campaign.events_applied);
    le::put_u64(payload, entry.node_count);
    le::put_u64(payload, entry.aggregate_count);
    le::put_u64(payload, entry.skip_count);
    le::put_u8(payload, campaign.aggregate_kind);
    le::put_f64(payload, tree.total_contribution());
    for (std::size_t s = 0; s < kV5SectionCount; ++s) {
      le::put_u64(payload, entry.offsets[s]);
    }
    for (std::size_t s = 0; s < kV5SectionCount; ++s) {
      le::put_u32(payload, crc32c({out.data() + entry.offsets[s],
                                   entry.section_count(s) * kV5ElemSize[s]}));
    }
  }
  ensure(payload.size() == payload_size, "snapshot v5: header layout drift");

  char* head = out.data();
  std::memcpy(head, kSnapshotMagicV5.data(), kSnapshotMagicV5.size());
  head += kSnapshotMagicV5.size();
  le::store(head, static_cast<std::uint32_t>(payload.size()));
  le::store(head + 4, crc32c(payload));
  std::memcpy(head + 8, payload.data(), payload.size());
  return out;
}

SnapshotData decode_snapshot(std::string_view bytes) {
  const V5Header header = parse_v5_header(bytes);
  verify_v5_sections(bytes, header);
  // No mapping to adopt from a transient buffer: the copy path gives
  // the trees their own (shared) storage.
  return build_v5(bytes, header, nullptr);
}

std::uint64_t validate_snapshot_image(std::string_view bytes) {
  const V5Header header = parse_v5_header(bytes);
  verify_v5_sections(bytes, header);
  return header.last_seq;
}

std::string snapshot_name(std::uint64_t last_seq) {
  char name[32];
  std::snprintf(name, sizeof(name), "snap-%016llx.snap",
                static_cast<unsigned long long>(last_seq));
  return name;
}

std::vector<std::pair<std::uint64_t, std::string>> list_snapshots(
    const std::string& dir) {
  namespace fs = std::filesystem;
  std::vector<std::pair<std::uint64_t, std::string>> snapshots;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() != 5 + 16 + 5 || name.rfind("snap-", 0) != 0 ||
        name.substr(5 + 16) != ".snap") {
      continue;
    }
    const std::string digits = name.substr(5, 16);
    char* end = nullptr;
    const std::uint64_t seq = std::strtoull(digits.c_str(), &end, 16);
    if (end == nullptr || *end != '\0') {
      continue;
    }
    snapshots.emplace_back(seq, name);
  }
  std::sort(snapshots.begin(), snapshots.end());
  return snapshots;
}

void save_snapshot(const std::string& dir, const SnapshotData& data,
                   SnapshotFormat /*format*/) {
  write_image_durably(dir, encode_snapshot_v5(data), data.last_seq);
}

void save_snapshot_image(const std::string& dir, std::string_view image,
                         std::uint64_t last_seq) {
  write_image_durably(dir, image, last_seq);
}

std::optional<SnapshotData> load_latest_snapshot(
    const std::string& dir, std::vector<std::string>* warnings) {
  auto snapshots = list_snapshots(dir);
  for (auto it = snapshots.rbegin(); it != snapshots.rend(); ++it) {
    const std::string path = dir + "/" + it->second;
    try {
      // The columns stream straight from the page cache and are adopted
      // in place, pinned by the trees' keepalive.
      return MappedSnapshot(path).materialize();
    } catch (const std::invalid_argument& error) {
      if (warnings != nullptr) {
        warnings->push_back("skipping snapshot " + it->second + ": " +
                            error.what());
      }
    } catch (const std::runtime_error& error) {
      if (warnings != nullptr) {
        warnings->push_back("skipping snapshot " + it->second + ": " +
                            error.what());
      }
    }
  }
  return std::nullopt;
}

// ---- MappedSnapshot -----------------------------------------------------

MappedSnapshot::MappedSnapshot(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    fail("snapshot: cannot open " + path);
  }
  struct ::stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    fail("snapshot: cannot stat " + path);
  }
  auto holder = std::make_shared<MappingHolder>();
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size > 0) {
    void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
      holder->map = map;
      holder->size = size;
      // The verify pass streams the whole image front to back; tell
      // the kernel so readahead keeps up and the first fault doesn't
      // stall on a cold page cache. verify() resets the advice.
#ifdef MADV_SEQUENTIAL
      ::madvise(map, size, MADV_SEQUENTIAL);
#endif
#ifdef MADV_WILLNEED
      ::madvise(map, size, MADV_WILLNEED);
#endif
    }
  }
  if (holder->map == nullptr) {
    // mmap unavailable (exotic filesystem, size 0): buffered fallback.
    holder->fallback.resize(size);
    if (!io::read_exact(fd, holder->fallback.data(), size)) {
      ::close(fd);
      fail("snapshot: short read of " + path);
    }
  }
  ::close(fd);
  // If header parsing throws, holder_'s destructor unmaps.
  holder_ = std::move(holder);
  const V5Header header = parse_v5_header(holder_->bytes());
  last_seq_ = header.last_seq;
  mechanism_ = header.mechanism;
}

MappedSnapshot::~MappedSnapshot() = default;
MappedSnapshot::MappedSnapshot(MappedSnapshot&& other) noexcept = default;
MappedSnapshot& MappedSnapshot::operator=(MappedSnapshot&& other) noexcept =
    default;

std::string_view MappedSnapshot::bytes() const { return holder_->bytes(); }

void MappedSnapshot::verify() const {
  if (verified_) {
    return;  // the image is immutable; one section-CRC walk suffices
  }
  verify_v5_sections(bytes(), parse_v5_header(bytes()));
  verified_ = true;
#ifdef MADV_NORMAL
  // The stream is over: an adopted mapping serves random point reads
  // for the daemon's lifetime, which MADV_SEQUENTIAL would penalize
  // (readahead on every fault, its pages reclaimed first).
  if (holder_->map != nullptr) {
    ::madvise(holder_->map, holder_->size, MADV_NORMAL);
  }
#endif
}

SnapshotData MappedSnapshot::materialize() const {
  verify();
  // Adopt straight out of the mapping when there is one; the buffered
  // fallback copies (std::string gives no alignment guarantee).
  std::shared_ptr<const MappingHolder> mapping;
  if (holder_->map != nullptr) {
    mapping = holder_;
  }
  return build_v5(bytes(), parse_v5_header(bytes()), std::move(mapping));
}

}  // namespace itree::storage
