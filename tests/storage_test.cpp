// Storage-engine tests: CRC32C vectors, WAL framing and torn-tail
// semantics, snapshot round-trips and corruption fallback, and the
// headline recovery invariant — at every possible crash point the
// recovered per-campaign rewards are bit-identical to an uninterrupted
// run over the surviving event prefix, for TDRM (RCT chain state) and
// for CDRM-1, L-Pachira and the normalized preliminary TDRM (aggregate
// engine) campaigns, at any thread count.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/factory.h"
#include "core/registry.h"
#include "server/event_log.h"
#include "storage/crc32c.h"
#include "storage/snapshot.h"
#include "storage/storage.h"
#include "storage/wal.h"
#include "tree/generators.h"
#include "util/bench_json.h"  // monotonic_seconds
#include "util/parallel.h"
#include "util/rng.h"

namespace itree::storage {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  return dir;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Seeded per-campaign workload: joins under random referrers plus
/// follow-up contributions, the loadgen mix without the queries.
std::vector<Event> make_stream(std::uint64_t seed, std::size_t count) {
  Rng rng(seed);
  std::vector<Event> events;
  events.reserve(count);
  std::size_t participants = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (participants == 0 || rng.bernoulli(0.6)) {
      const NodeId referrer =
          (participants == 0 || rng.bernoulli(0.2))
              ? kRoot
              : static_cast<NodeId>(1 + rng.index(participants));
      events.push_back(JoinEvent{referrer, rng.uniform(0.0, 3.0)});
      ++participants;
    } else {
      events.push_back(
          ContributeEvent{static_cast<NodeId>(1 + rng.index(participants)),
                          rng.uniform(0.0, 2.0)});
    }
  }
  return events;
}

// --- CRC32C ---------------------------------------------------------

TEST(Crc32c, KnownAnswerVector) {
  // The canonical Castagnoli check value (RFC 3720 appendix B.4 test
  // pattern family): crc32c("123456789") == 0xE3069283.
  EXPECT_EQ(crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(crc32c(""), 0u);
}

TEST(Crc32c, StreamingMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= data.size(); ++split) {
    const std::string_view head(data.data(), split);
    const std::string_view tail(data.data() + split, data.size() - split);
    EXPECT_EQ(crc32c(tail.data(), tail.size(), crc32c(head)), crc32c(data));
  }
}

TEST(Crc32c, DetectsSingleBitFlips) {
  const std::string data = "incentive tree";
  const std::uint32_t good = crc32c(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = data;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      EXPECT_NE(crc32c(flipped), good);
    }
  }
}

TEST(Crc32c, DispatchMatchesPortable) {
  // crc32c() picks the SSE4.2 instruction when the CPU has it; the
  // slice-by-8 fallback must give the same value for every length,
  // alignment, seed and streaming split, so either path can read what
  // the other wrote.
  Rng rng(3);
  std::vector<unsigned char> bytes((1u << 20) + 8);
  for (unsigned char& byte : bytes) {
    byte = static_cast<unsigned char>(rng.index(256));
  }
  for (const std::uint32_t seed : {0u, 1u, 0xFFFFFFFFu}) {
    for (std::size_t align = 0; align < 8; ++align) {
      for (std::size_t length = 0; length <= 300; ++length) {
        const unsigned char* data = bytes.data() + align;
        ASSERT_EQ(crc32c(data, length, seed),
                  crc32c_portable(data, length, seed))
            << "seed " << seed << " align " << align << " length " << length;
      }
    }
    EXPECT_EQ(crc32c(bytes.data(), 1u << 20, seed),
              crc32c_portable(bytes.data(), 1u << 20, seed));
  }
  for (std::size_t split = 0; split <= 40; ++split) {
    const std::uint32_t head = crc32c(bytes.data(), split);
    EXPECT_EQ(crc32c(bytes.data() + split, 40 - split, head),
              crc32c_portable(bytes.data(), 40))
        << "split " << split;
  }
}

// --- WAL framing ----------------------------------------------------

std::vector<WalRecord> sample_records() {
  return {
      {1, 0, JoinEvent{kRoot, 2.5}},
      {2, 1, JoinEvent{kRoot, 0.0}},
      {3, 0, ContributeEvent{1, 1.25}},
      {4, 2, JoinEvent{1, 3.75}},
      {5, 0, ContributeEvent{2, 0.5}},
  };
}

std::string encode_all(const std::vector<WalRecord>& records) {
  std::string bytes;
  for (const WalRecord& record : records) {
    bytes += encode_wal_record(record);
  }
  return bytes;
}

TEST(Wal, RecordsRoundTrip) {
  const std::vector<WalRecord> records = sample_records();
  const WalScan scan = scan_wal(encode_all(records));
  EXPECT_TRUE(scan.clean);
  EXPECT_EQ(scan.records, records);
}

TEST(Wal, TornTailAtEveryCutRecoversThePrefix) {
  const std::vector<WalRecord> records = sample_records();
  const std::string bytes = encode_all(records);
  // Record boundaries, for deciding how many records each cut keeps.
  std::vector<std::size_t> boundaries{0};
  for (const WalRecord& record : records) {
    boundaries.push_back(boundaries.back() +
                         encode_wal_record(record).size());
  }
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    const WalScan scan = scan_wal(std::string_view(bytes).substr(0, cut));
    std::size_t expect_records = 0;
    while (expect_records + 1 < boundaries.size() &&
           boundaries[expect_records + 1] <= cut) {
      ++expect_records;
    }
    ASSERT_EQ(scan.records.size(), expect_records) << "cut at " << cut;
    EXPECT_EQ(scan.valid_bytes, boundaries[expect_records]);
    EXPECT_EQ(scan.clean, cut == boundaries[expect_records]);
    for (std::size_t i = 0; i < expect_records; ++i) {
      EXPECT_EQ(scan.records[i], records[i]);
    }
  }
}

TEST(Wal, FlippedByteStopsTheScanAtThatRecord) {
  const std::vector<WalRecord> records = sample_records();
  const std::string bytes = encode_all(records);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x40);
    const WalScan scan = scan_wal(corrupt);
    EXPECT_FALSE(scan.clean) << "flip at " << i;
    // Only records strictly before the flipped byte may survive, and
    // the survivors must be uncorrupted.
    EXPECT_LE(scan.valid_bytes, i);
    for (std::size_t r = 0; r < scan.records.size(); ++r) {
      EXPECT_EQ(scan.records[r], records[r]);
    }
  }
}

TEST(Wal, OversizedAndZeroLengthPrefixesAreTruncationsNotAllocations) {
  std::string bytes;
  // length = 0xFFFFFFFF with a bogus CRC: must not attempt a 4 GiB read.
  bytes.assign(8, '\xff');
  WalScan scan = scan_wal(bytes);
  EXPECT_FALSE(scan.clean);
  EXPECT_EQ(scan.valid_bytes, 0u);
  EXPECT_NE(scan.truncation_reason.find("impossible length"),
            std::string::npos);

  bytes.assign(8, '\0');  // length == 0 is equally impossible
  scan = scan_wal(bytes);
  EXPECT_FALSE(scan.clean);
  EXPECT_EQ(scan.valid_bytes, 0u);
}

TEST(Wal, WriterRotatesSegmentsAtTheConfiguredSize) {
  const fs::path dir = fresh_dir("itree_storage_wal_rotate");
  fs::create_directories(dir);
  {
    WalWriter writer(dir.string(), 1, FsyncPolicy::kNever, 0.0, 256);
    for (std::uint32_t i = 0; i < 50; ++i) {
      writer.append(0, JoinEvent{kRoot, 1.0});
      if (i % 5 == 4) {
        writer.commit();
      }
    }
    writer.sync();
    EXPECT_GE(writer.segments_created(), 2u);
  }
  const auto segments = list_wal_segments(dir.string());
  ASSERT_GE(segments.size(), 2u);
  EXPECT_EQ(segments.front().first, 1u);
  // Segments chain contiguously: each file's name is the next seq
  // after the records of the previous files.
  std::uint64_t expected = 1;
  for (const auto& [first_seq, name] : segments) {
    EXPECT_EQ(first_seq, expected);
    const WalScan scan = scan_wal_file((dir / name).string());
    EXPECT_TRUE(scan.clean);
    expected += scan.records.size();
  }
  EXPECT_EQ(expected, 51u);
  fs::remove_all(dir);
}

// --- Snapshots ------------------------------------------------------

SnapshotData sample_snapshot() {
  SnapshotData data;
  data.last_seq = 77;
  data.mechanism = "TDRM(test)";
  CampaignSnapshot a;
  a.events_applied = 9;
  const NodeId u1 = a.tree.add_node(kRoot, 2.5);
  a.tree.add_node(u1, 1.25);
  a.tree.add_node(u1, 0.0);
  CampaignSnapshot b;
  b.events_applied = 0;
  data.campaigns.push_back(std::move(a));
  data.campaigns.push_back(std::move(b));
  return data;
}

TEST(Snapshot, RoundTripsBitExactly) {
  const SnapshotData data = sample_snapshot();
  const SnapshotData decoded = decode_snapshot(encode_snapshot_v5(data));
  EXPECT_EQ(decoded.last_seq, data.last_seq);
  EXPECT_EQ(decoded.mechanism, data.mechanism);
  ASSERT_EQ(decoded.campaigns.size(), data.campaigns.size());
  for (std::size_t c = 0; c < data.campaigns.size(); ++c) {
    const Tree& want = data.campaigns[c].tree;
    const Tree& got = decoded.campaigns[c].tree;
    EXPECT_EQ(decoded.campaigns[c].events_applied,
              data.campaigns[c].events_applied);
    ASSERT_EQ(got.node_count(), want.node_count());
    for (NodeId u = 1; u < want.node_count(); ++u) {
      EXPECT_EQ(got.parent(u), want.parent(u));
      EXPECT_EQ(got.contribution(u), want.contribution(u));  // bit-exact
    }
  }
}

TEST(Snapshot, LoaderFallsBackToAnOlderValidSnapshot) {
  const fs::path dir = fresh_dir("itree_storage_snap_fallback");
  fs::create_directories(dir);
  SnapshotData older = sample_snapshot();
  older.last_seq = 10;
  SnapshotData newer = sample_snapshot();
  newer.last_seq = 20;
  save_snapshot(dir.string(), older);
  save_snapshot(dir.string(), newer);
  // Corrupt the newer image in place (simulated bit rot). Flip inside
  // the checksummed header payload — a mid-file byte could land in
  // page padding, which no CRC covers because it is never read.
  const fs::path newer_path = dir / snapshot_name(20);
  std::string image = read_file(newer_path);
  image[17] ^= 0x10;
  write_file(newer_path, image);

  std::vector<std::string> warnings;
  const auto loaded = load_latest_snapshot(dir.string(), &warnings);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->last_seq, 10u);
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find(snapshot_name(20)), std::string::npos);
  fs::remove_all(dir);
}

/// Bit-exact structural equality of two decoded snapshots.
void expect_snapshot_equal(const SnapshotData& got, const SnapshotData& want) {
  EXPECT_EQ(got.last_seq, want.last_seq);
  EXPECT_EQ(got.mechanism, want.mechanism);
  ASSERT_EQ(got.campaigns.size(), want.campaigns.size());
  for (std::size_t c = 0; c < want.campaigns.size(); ++c) {
    const CampaignSnapshot& g = got.campaigns[c];
    const CampaignSnapshot& w = want.campaigns[c];
    EXPECT_EQ(g.events_applied, w.events_applied);
    EXPECT_EQ(g.aggregate_kind, w.aggregate_kind);
    ASSERT_EQ(g.aggregates.size(), w.aggregates.size());
    for (std::size_t i = 0; i < w.aggregates.size(); ++i) {
      EXPECT_EQ(g.aggregates[i], w.aggregates[i]);  // bit-exact
    }
    ASSERT_EQ(g.tree.node_count(), w.tree.node_count());
    for (NodeId u = 1; u < w.tree.node_count(); ++u) {
      EXPECT_EQ(g.tree.parent(u), w.tree.parent(u));
      EXPECT_EQ(g.tree.contribution(u), w.tree.contribution(u));
    }
  }
}

/// Bit-exact equality of two trees: node count, then every node's
/// parent and contribution bits.
void expect_same_tree(const Tree& got, const Tree& want) {
  ASSERT_EQ(got.node_count(), want.node_count());
  for (NodeId u = 1; u < want.node_count(); ++u) {
    EXPECT_EQ(got.parent(u), want.parent(u)) << "node " << u;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.contribution(u)),
              std::bit_cast<std::uint64_t>(want.contribution(u)))
        << "node " << u;
  }
}

SnapshotData sample_snapshot_with_blob() {
  SnapshotData data = sample_snapshot();
  data.campaigns[0].aggregate_kind = 1;  // AggregateKind::kAggregateEngine
  data.campaigns[0].aggregates = {1.5, 2.25, 0.0, 3.75};
  return data;
}

// --- Full-arena images, zero-rebuild adoption ----------------------

TEST(Snapshot, V5RoundTripsBitExactly) {
  const SnapshotData data = sample_snapshot_with_blob();
  const std::string image = encode_snapshot_v5(data);
  EXPECT_EQ(std::string_view(image).substr(0, 8), kSnapshotMagicV5);
  EXPECT_EQ(image.size() % kSnapshotPageSize, 0u);
  EXPECT_EQ(validate_snapshot_image(image), data.last_seq);
  const SnapshotData decoded = decode_snapshot(image);
  expect_snapshot_equal(decoded, data);
  // The full arena travels in the image: links and depths come back
  // bit-identical, proven by the cross-link check.
  for (std::size_t c = 0; c < data.campaigns.size(); ++c) {
    const Tree& want = data.campaigns[c].tree;
    const Tree& got = decoded.campaigns[c].tree;
    for (NodeId u = 0; u < want.node_count(); ++u) {
      EXPECT_EQ(got.depth(u), want.depth(u));
      EXPECT_EQ(got.children(u).to_vector(), want.children(u).to_vector());
    }
    EXPECT_EQ(got.total_contribution(), want.total_contribution());
    got.validate_links();
  }
}

TEST(Snapshot, V5FlippedBytesThrowOrDecodeUnchanged) {
  // The image is zero-padded to page boundaries and the padding is
  // never read, so a flip there is semantically invisible; every flip
  // in a read region is CRC- or geometry-checked. Decode either throws
  // or returns exactly the original data.
  const std::string image = encode_snapshot_v5(sample_snapshot_with_blob());
  const SnapshotData want = decode_snapshot(image);
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < image.size(); ++i) {
    std::string corrupt = image;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x01);
    try {
      expect_snapshot_equal(decode_snapshot(corrupt), want);
    } catch (const std::invalid_argument&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);
}

TEST(Snapshot, V5EveryTruncationAndExtensionIsRejected) {
  const std::string image = encode_snapshot_v5(sample_snapshot_with_blob());
  for (std::size_t cut = 0; cut < image.size(); ++cut) {
    const std::string_view prefix = std::string_view(image).substr(0, cut);
    EXPECT_THROW(decode_snapshot(prefix), std::invalid_argument);
    EXPECT_THROW(validate_snapshot_image(prefix), std::invalid_argument);
  }
  EXPECT_THROW(decode_snapshot(image + std::string(1, '\0')),
               std::invalid_argument);
}

TEST(Snapshot, MappedV5SnapshotAdoptsTheArenaInPlace) {
  const fs::path dir = fresh_dir("itree_storage_v5_mmap");
  fs::create_directories(dir);
  const SnapshotData data = sample_snapshot_with_blob();
  save_snapshot(dir.string(), data);
  const fs::path path = dir / snapshot_name(data.last_seq);
  const std::string raw = read_file(path);
  EXPECT_EQ(std::string_view(raw).substr(0, 8), kSnapshotMagicV5);
  {
    MappedSnapshot mapped(path.string());
    EXPECT_EQ(mapped.last_seq(), data.last_seq);
    EXPECT_EQ(mapped.mechanism(), data.mechanism);
    EXPECT_EQ(std::string(mapped.bytes()), raw);
    mapped.verify();  // must not throw
    const SnapshotData adopted = mapped.materialize();
    expect_snapshot_equal(adopted, decode_snapshot(raw));
    // Zero-rebuild: every tree column still borrows the mapping, and
    // the links prove out without a single per-node construction step.
    for (const CampaignSnapshot& campaign : adopted.campaigns) {
      EXPECT_EQ(campaign.tree.borrowed_column_count(), 4u);
      EXPECT_EQ(campaign.tree.allocation_count(), 0u);
      campaign.tree.validate_links();
    }
    // The adopted trees outlive the MappedSnapshot handle (keepalive).
    MappedSnapshot moved = std::move(mapped);
    expect_snapshot_equal(moved.materialize(), data);
  }
  fs::remove_all(dir);
}

TEST(Snapshot, MappedV5SnapshotRejectsDamagedImages) {
  const fs::path dir = fresh_dir("itree_storage_v5_mmap_bad");
  fs::create_directories(dir);
  const std::string image = encode_snapshot_v5(sample_snapshot_with_blob());

  // Missing file: an I/O error, not a format error.
  EXPECT_THROW(MappedSnapshot((dir / "nope.snap").string()),
               std::runtime_error);

  // Truncated file: the header's file-size field fails at construction.
  const fs::path torn = dir / "torn.snap";
  write_file(torn, image.substr(0, image.size() - 1));
  EXPECT_THROW(MappedSnapshot(torn.string()), std::invalid_argument);

  // A flip in the first arena section passes header validation but
  // fails the section CRC in verify() and materialize().
  std::string corrupt = image;
  corrupt[kSnapshotPageSize] =
      static_cast<char>(corrupt[kSnapshotPageSize] ^ 1);
  const fs::path rotted = dir / "rot.snap";
  write_file(rotted, corrupt);
  MappedSnapshot mapped(rotted.string());
  EXPECT_EQ(mapped.last_seq(), 77u);  // header still validates
  EXPECT_THROW(mapped.verify(), std::invalid_argument);
  EXPECT_THROW(mapped.materialize(), std::invalid_argument);
  fs::remove_all(dir);
}

// --- Image layout: which bytes a reader consumes --------------------

/// Little-endian field of `bytes` bytes at image offset `at`, at the
/// positions the format comment in storage/snapshot.h documents.
std::uint64_t load_le(std::string_view image, std::size_t at, int bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<std::uint64_t>(
             static_cast<unsigned char>(image[at + i]))
         << (8 * i);
  }
  return v;
}

void store_le(std::string& image, std::size_t at, std::uint64_t v,
              int bytes) {
  for (int i = 0; i < bytes; ++i) {
    image[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

// The header payload follows magic(8) + length(4) + CRC(4).
constexpr std::size_t kPayloadAt = 16;
// One campaign entry: events, node count, aggregate count, skip count
// (u64 each), kind (u8), total contribution (f64), then 9 section
// offsets (u64) and 9 section CRCs (u32).
constexpr std::size_t kEntryBytes = 8 * 4 + 1 + 8 + 9 * 8 + 9 * 4;
constexpr std::size_t kEntryOffsetsAt = 8 * 4 + 1 + 8;
constexpr std::size_t kEntryCrcsAt = kEntryOffsetsAt + 9 * 8;
// Section order within an entry.
constexpr std::size_t kParentSection = 0;
constexpr std::size_t kFirstChildSection = 1;
constexpr std::size_t kLastChildSection = 2;
constexpr std::size_t kNextSiblingSection = 3;
constexpr std::size_t kPrevSiblingSection = 4;
constexpr std::size_t kDepthSection = 5;
constexpr std::size_t kContributionSection = 6;
constexpr std::size_t kSkipSection = 7;
constexpr std::size_t kAggregatesSection = 8;

std::size_t header_payload_length(std::string_view image) {
  return load_le(image, 8, 4);
}

/// Image offset of campaign `c`'s entry in the header payload.
std::size_t entry_at(std::string_view image, std::size_t c) {
  const std::size_t name_length = load_le(image, kPayloadAt + 24, 4);
  return kPayloadAt + 28 + name_length + c * kEntryBytes;
}

struct Region {
  std::size_t offset = 0;
  std::size_t length = 0;
};

/// Every byte range a reader consumes: the header record (magic through
/// payload) first, then each campaign's nine sections in order.
/// Everything else in the image is page padding.
std::vector<Region> read_regions(std::string_view image) {
  std::vector<Region> regions = {
      {0, kPayloadAt + header_payload_length(image)}};
  const std::size_t campaigns = load_le(image, kPayloadAt + 20, 4);
  for (std::size_t c = 0; c < campaigns; ++c) {
    const std::size_t entry = entry_at(image, c);
    const std::size_t nodes = load_le(image, entry + 8, 8);
    const std::size_t aggregates = load_le(image, entry + 16, 8);
    const std::size_t skips = load_le(image, entry + 24, 8);
    const auto offset = [&](std::size_t s) {
      return load_le(image, entry + kEntryOffsetsAt + 8 * s, 8);
    };
    // An empty first-child section shares the last-child section's
    // offset, an empty prev-sibling section the depth section's, an
    // empty depth section the contribution section's.
    const std::size_t firsts =
        offset(kFirstChildSection) == offset(kLastChildSection) ? 0 : nodes;
    const std::size_t prevs =
        offset(kPrevSiblingSection) == offset(kDepthSection) ? 0 : nodes;
    const std::size_t depths =
        offset(kDepthSection) == offset(kContributionSection) ? 0 : nodes;
    const std::array<std::size_t, 9> bytes = {
        nodes * 4,  firsts * 4, nodes * 4, nodes * 4,    prevs * 4,
        depths * 4, nodes * 8, skips * 4, aggregates * 8};
    for (std::size_t s = 0; s < bytes.size(); ++s) {
      regions.push_back({offset(s), bytes[s]});
    }
  }
  return regions;
}

/// Recomputes the header CRC after a test edits header fields, so the
/// field checks — not the checksum — decide.
void reseal_header(std::string& image) {
  const std::string_view payload =
      std::string_view(image).substr(kPayloadAt, header_payload_length(image));
  store_le(image, 12, crc32c(payload), 4);
}

/// Recomputes campaign `c`'s section-`s` CRC, then the header CRC, after
/// a test edits that section or its count.
void reseal_section(std::string& image, std::size_t c, std::size_t s) {
  const Region region = read_regions(image)[1 + c * 9 + s];
  store_le(image, entry_at(image, c) + kEntryCrcsAt + 4 * s,
           crc32c(std::string_view(image).substr(region.offset,
                                                 region.length)),
           4);
  reseal_header(image);
}

TEST(Snapshot, EveryFlippedHeaderByteIsRejected) {
  // Magic, length, CRC and payload are all checked: one flipped bit
  // anywhere in the header record fails decode and the validate-only
  // scan alike.
  const std::string image = encode_snapshot_v5(sample_snapshot_with_blob());
  const Region header = read_regions(image)[0];
  for (std::size_t i = 0; i < header.length; ++i) {
    std::string corrupt = image;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x01);
    EXPECT_THROW(decode_snapshot(corrupt), std::invalid_argument)
        << "flip at " << i;
    EXPECT_THROW(validate_snapshot_image(corrupt), std::invalid_argument)
        << "flip at " << i;
  }
}

TEST(Snapshot, EveryFlippedSectionByteIsRejected) {
  // Each section carries its own CRC in the header table: a flip in any
  // link, contribution or aggregate byte is rejected. (The first-child,
  // prev-sibling, depth and skip sections are written empty; present
  // ones are covered by PreRingImagesAreClosedIntoRingsByEveryReader,
  // LegacyPrevSiblingSectionIsVerifiedAndIgnored,
  // LegacyDepthSectionIsVerifiedAndIgnored and
  // LegacySkipSectionIsVerifiedAndIgnored.)
  const std::string image = encode_snapshot_v5(sample_snapshot_with_blob());
  const std::vector<Region> regions = read_regions(image);
  std::size_t checked = 0;
  for (std::size_t r = 1; r < regions.size(); ++r) {
    for (std::size_t i = regions[r].offset;
         i < regions[r].offset + regions[r].length; ++i) {
      std::string corrupt = image;
      corrupt[i] = static_cast<char>(corrupt[i] ^ 0x01);
      EXPECT_THROW(decode_snapshot(corrupt), std::invalid_argument)
          << "flip at " << i;
      EXPECT_THROW(validate_snapshot_image(corrupt), std::invalid_argument)
          << "flip at " << i;
      ++checked;
    }
  }
  // Campaign 0 (4 rows, 4 aggregates): 3 u32 columns + 2 f64 columns;
  // campaign 1 (root row only, no blob): 3 u32 + 1 f64.
  EXPECT_EQ(checked, (3 * 4 * 4 + 2 * 4 * 8) + (3 * 4 + 8));
}

TEST(Snapshot, PagePaddingIsZeroAndNeverRead) {
  // The complement of the two tests above: every byte outside the header
  // record and the sections is zero padding, and flipping it changes
  // nothing any reader returns.
  const SnapshotData data = sample_snapshot_with_blob();
  const std::string image = encode_snapshot_v5(data);
  std::vector<bool> read(image.size(), false);
  for (const Region& region : read_regions(image)) {
    ASSERT_LE(region.offset + region.length, image.size());
    std::fill_n(read.begin() + static_cast<std::ptrdiff_t>(region.offset),
                region.length, true);
  }
  std::size_t padding = 0;
  for (std::size_t i = 0; i < image.size(); ++i) {
    if (read[i]) {
      continue;
    }
    ++padding;
    ASSERT_EQ(image[i], '\0') << "byte " << i;
    std::string corrupt = image;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x01);
    ASSERT_EQ(validate_snapshot_image(corrupt), data.last_seq) << i;
    const SnapshotData decoded = decode_snapshot(corrupt);
    ASSERT_EQ(decoded.campaigns.size(), data.campaigns.size());
    ASSERT_EQ(decoded.campaigns[0].aggregates, data.campaigns[0].aggregates);
    expect_same_tree(decoded.campaigns[0].tree, data.campaigns[0].tree);
  }
  EXPECT_GT(padding, 0u);
}

TEST(Snapshot, EarlierGenerationsAreRejectedByNameByEveryReader) {
  // A pre-ITSNAP05 file is refused up front, and the message names its
  // generation so an operator sees why a well-formed file was passed
  // over; a foreign file is just bad magic.
  const fs::path dir = fresh_dir("itree_storage_generations");
  fs::create_directories(dir);
  const std::string image = encode_snapshot_v5(sample_snapshot());
  const fs::path path = dir / "image.snap";
  const auto expect_rejected = [&](const std::string& bytes,
                                   const std::string& message) {
    const auto expect_message = [&](const auto& read) {
      try {
        read();
        ADD_FAILURE() << message << ": accepted";
      } catch (const std::invalid_argument& error) {
        EXPECT_NE(std::string(error.what()).find(message), std::string::npos)
            << error.what();
      }
    };
    expect_message([&] { (void)decode_snapshot(bytes); });
    expect_message([&] { (void)validate_snapshot_image(bytes); });
    write_file(path, bytes);
    expect_message([&] { MappedSnapshot mapped(path.string()); });
  };
  for (const std::string legacy :
       {"ITSNAP01", "ITSNAP02", "ITSNAP03", "ITSNAP04"}) {
    std::string bytes = image;
    bytes.replace(0, legacy.size(), legacy);
    expect_rejected(bytes, "unsupported snapshot generation " + legacy +
                               "; only ITSNAP05 is read");
  }
  std::string foreign = image;
  foreign.replace(0, 8, "NOTASNAP");
  expect_rejected(foreign, "snapshot: bad magic");
  fs::remove_all(dir);
}

TEST(Snapshot, ReencodingWhatAReaderReturnsReproducesTheImage) {
  // The encoder is a pure function of the state and no reader loses a
  // bit of it: re-encoding a buffered decode or an in-place adoption
  // rewrites the identical image, so a replica that re-snapshots
  // adopted state writes the primary's bytes.
  const fs::path dir = fresh_dir("itree_storage_reencode");
  fs::create_directories(dir);
  SnapshotData data = sample_snapshot_with_blob();
  Rng rng(4242);
  CampaignSnapshot large;
  large.events_applied = 3000;
  large.tree =
      random_recursive_tree(3000, uniform_contribution(0.0, 2.0), rng);
  data.campaigns.push_back(std::move(large));
  const std::string image = encode_snapshot_v5(data);
  EXPECT_EQ(encode_snapshot_v5(data), image);
  EXPECT_EQ(encode_snapshot_v5(decode_snapshot(image)), image);
  save_snapshot(dir.string(), data);
  const SnapshotData adopted =
      MappedSnapshot((dir / snapshot_name(data.last_seq)).string())
          .materialize();
  EXPECT_EQ(adopted.campaigns[2].tree.borrowed_column_count(), 4u);
  EXPECT_EQ(encode_snapshot_v5(adopted), image);
  fs::remove_all(dir);
}

TEST(Snapshot, DeploymentWithoutCampaignsRoundTrips) {
  const fs::path dir = fresh_dir("itree_storage_no_campaigns");
  fs::create_directories(dir);
  SnapshotData data;
  data.last_seq = 5;
  data.mechanism = "CDRM(test)";
  const std::string image = encode_snapshot_v5(data);
  EXPECT_EQ(image.size(), kSnapshotPageSize);  // the header record alone
  EXPECT_EQ(validate_snapshot_image(image), 5u);
  expect_snapshot_equal(decode_snapshot(image), data);
  save_snapshot(dir.string(), data);
  const MappedSnapshot mapped((dir / snapshot_name(5)).string());
  EXPECT_EQ(mapped.mechanism(), data.mechanism);
  expect_snapshot_equal(mapped.materialize(), data);
  fs::remove_all(dir);
}

TEST(Snapshot, HeaderSpanningSeveralPagesRoundTrips) {
  // A long mechanism name and many campaigns push the header record past
  // one page: it is padded to a page multiple and every section still
  // starts page-aligned after it.
  SnapshotData data = sample_snapshot_with_blob();
  data.mechanism = std::string(6000, 'm');
  const CampaignSnapshot populated = data.campaigns[0];
  const CampaignSnapshot empty = data.campaigns[1];
  for (int c = 0; c < 40; ++c) {
    data.campaigns.push_back(c % 2 == 0 ? populated : empty);
  }
  const std::string image = encode_snapshot_v5(data);
  const std::vector<Region> regions = read_regions(image);
  ASSERT_EQ(regions.size(), 1 + 42 * 9u);
  EXPECT_GT(regions[0].length, 2 * kSnapshotPageSize);
  for (std::size_t r = 1; r < regions.size(); ++r) {
    EXPECT_EQ(regions[r].offset % kSnapshotPageSize, 0u) << r;
    EXPECT_GE(regions[r].offset, 3 * kSnapshotPageSize) << r;
  }
  EXPECT_EQ(validate_snapshot_image(image), data.last_seq);
  expect_snapshot_equal(decode_snapshot(image), data);
}

TEST(Snapshot, DecodedTreesOutliveTheInputBuffer) {
  // decode_snapshot reads a caller's transient buffer: the trees it
  // returns hold their own copy of every column and blob.
  const SnapshotData data = sample_snapshot_with_blob();
  SnapshotData decoded;
  {
    std::string image = encode_snapshot_v5(data);
    decoded = decode_snapshot(image);
    std::fill(image.begin(), image.end(), '\xff');
  }
  expect_snapshot_equal(decoded, data);
  for (const CampaignSnapshot& campaign : decoded.campaigns) {
    campaign.tree.validate_links();
  }
}

TEST(Snapshot, AdoptedTreeMutationsNeverReachTheImageFile) {
  // An adopted tree borrows the read-only mapping; its first mutation
  // privatizes the touched columns, so the file on disk — and any later
  // load of it — still holds the snapshotted state.
  const fs::path dir = fresh_dir("itree_storage_adopt_cow");
  fs::create_directories(dir);
  const SnapshotData data = sample_snapshot_with_blob();
  save_snapshot(dir.string(), data);
  const fs::path path = dir / snapshot_name(data.last_seq);
  const std::string raw = read_file(path);

  SnapshotData adopted = MappedSnapshot(path.string()).materialize();
  Tree& tree = adopted.campaigns[0].tree;
  const NodeId added = tree.add_node(1, 4.0);
  tree.set_contribution(2, 9.5);
  EXPECT_LT(tree.borrowed_column_count(), 4u);
  EXPECT_EQ(tree.parent(added), 1u);
  EXPECT_EQ(tree.contribution(2), 9.5);
  tree.validate_links();
  // The untouched campaign still borrows every column.
  EXPECT_EQ(adopted.campaigns[1].tree.borrowed_column_count(), 4u);

  EXPECT_EQ(read_file(path), raw);
  expect_snapshot_equal(MappedSnapshot(path.string()).materialize(), data);
  fs::remove_all(dir);
}

// --- Copied ranges of a mapped image are given back -----------------

/// Resident kB of the mapping that holds `addr`, read from
/// /proc/self/smaps. (mincore would not do: it reports the page cache,
/// which keeps the pages MADV_DONTNEED takes out of the page tables.)
std::size_t mapped_rss_kb(const void* addr) {
  std::ifstream smaps("/proc/self/smaps");
  const auto at = reinterpret_cast<std::uintptr_t>(addr);
  std::string line;
  bool inside = false;
  while (std::getline(smaps, line)) {
    unsigned long long lo = 0;
    unsigned long long hi = 0;
    if (std::sscanf(line.c_str(), "%llx-%llx ", &lo, &hi) == 2) {
      inside = lo <= at && at < hi;
    } else if (inside && line.rfind("Rss:", 0) == 0) {
      return std::stoull(line.substr(4));
    }
  }
  ADD_FAILURE() << "no mapping in /proc/self/smaps holds " << addr;
  return 0;
}

/// kB a release of a `bytes`-long section must at least drop: its whole
/// system pages, less two for a system page larger than the image's
/// (whose section starts and ends need not be aligned to it).
std::size_t released_kb(std::size_t bytes) {
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::size_t pages = bytes / page;
  return (pages > 2 ? pages - 2 : 0) * page / 1024;
}

/// Two 100k-participant campaigns with a 2n-entry aggregate blob each:
/// every section spans many pages.
SnapshotData paged_snapshot() {
  Rng rng(41);
  SnapshotData data;
  data.last_seq = 5;
  data.mechanism = "CDRM-1(test)";
  for (int c = 0; c < 2; ++c) {
    CampaignSnapshot campaign;
    campaign.events_applied = 100000;
    campaign.tree =
        random_recursive_tree(100000, uniform_contribution(0.0, 2.0), rng);
    campaign.aggregate_kind = 1;
    campaign.aggregates.resize(2 * campaign.tree.node_count());
    for (double& value : campaign.aggregates) {
      value = rng.uniform(0.0, 5.0);
    }
    data.campaigns.push_back(std::move(campaign));
  }
  return data;
}

/// Every column of `got` equals `want`'s, bit for bit.
void expect_same_columns(const Tree& got, const Tree& want) {
  const auto same = [](auto a, auto b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
  };
  EXPECT_TRUE(same(got.parent_array(), want.parent_array()));
  EXPECT_TRUE(same(got.last_child_array(), want.last_child_array()));
  EXPECT_TRUE(same(got.next_sibling_array(), want.next_sibling_array()));
  EXPECT_TRUE(same(got.contribution_array(), want.contribution_array()));
}

TEST(Snapshot, CopiedSectionsLeaveThePageTables) {
  const fs::path dir = fresh_dir("itree_storage_release_rss");
  fs::create_directories(dir);
  const SnapshotData data = paged_snapshot();
  save_snapshot(dir.string(), data);
  const MappedSnapshot mapped((dir / snapshot_name(data.last_seq)).string());
  mapped.verify();  // the CRC walk faults in every section
  const void* base = mapped.bytes().data();
  const std::size_t verified = mapped_rss_kb(base);
  EXPECT_GE(verified, released_kb(mapped.bytes().size()));

  // materialize() copies the aggregate sections out and releases them;
  // the columns are adopted in place.
  SnapshotData adopted = mapped.materialize();
  const std::size_t materialized = mapped_rss_kb(base);
  std::size_t aggregates_kb = 0;
  for (const CampaignSnapshot& campaign : data.campaigns) {
    aggregates_kb += released_kb(campaign.aggregates.size() * sizeof(double));
  }
  EXPECT_LE(materialized + aggregates_kb, verified);
  for (const CampaignSnapshot& campaign : adopted.campaigns) {
    EXPECT_EQ(campaign.tree.borrowed_column_count(), 4u);
  }

  // One append privatizes all five columns of campaign 0, and each
  // hands its section back. A release may drop more than its range (a
  // file page mapped as part of a huge page goes with the whole huge
  // page), so the columns are read back in first; and the copy of one
  // column may fault a little of the last one back in (fault-around),
  // so only half of their bytes must be gone.
  Tree& tree = adopted.campaigns[0].tree;
  const std::size_t n = tree.node_count();
  tree.validate_links();
  const std::size_t read_back = mapped_rss_kb(base);
  tree.add_node(1, 1.0);
  EXPECT_EQ(tree.borrowed_column_count(), 0u);
  const std::size_t privatized = mapped_rss_kb(base);
  const std::size_t columns_kb =
      (3 * sizeof(NodeId) + sizeof(double)) * n / 1024;
  EXPECT_LE(privatized + columns_kb / 2, read_back);

  // Campaign 1 still serves from the mapping; campaign 0 kept its bytes.
  EXPECT_EQ(adopted.campaigns[1].tree.borrowed_column_count(), 4u);
  expect_same_columns(adopted.campaigns[1].tree, data.campaigns[1].tree);
  for (NodeId u = 0; u < n; ++u) {
    ASSERT_EQ(tree.parent(u), data.campaigns[0].tree.parent(u));
    ASSERT_EQ(std::bit_cast<std::uint64_t>(tree.contribution(u)),
              std::bit_cast<std::uint64_t>(
                  data.campaigns[0].tree.contribution(u)));
  }
  tree.validate_links();
  fs::remove_all(dir);
}

TEST(Snapshot, BorrowersOfAReleasedColumnReadTheImageBitEqual) {
  const SnapshotData data = paged_snapshot();
  for (const bool unlink : {false, true}) {
    SCOPED_TRACE(unlink ? "image file unlinked" : "image file kept");
    const fs::path dir = fresh_dir("itree_storage_release_borrow");
    fs::create_directories(dir);
    save_snapshot(dir.string(), data);
    const fs::path path = dir / snapshot_name(data.last_seq);
    const MappedSnapshot mapped(path.string());
    SnapshotData adopted = mapped.materialize();
    const Tree copy = adopted.campaigns[0].tree;  // shares the borrow
    if (unlink) {
      // Only the mapping pins the inode now; a new image under the same
      // name (temp + rename, as every writer does) is another file.
      fs::remove(path);
      SnapshotData other = data;
      other.campaigns[0].tree.set_contribution(1, 7.0);
      save_snapshot(dir.string(), other);
    }
    adopted.campaigns[0].tree.add_node(1, 1.0);
    ASSERT_EQ(adopted.campaigns[0].tree.borrowed_column_count(), 0u);

    // The copy's columns left the page tables with the privatization;
    // reading them faults the same bytes back in.
    ASSERT_EQ(copy.borrowed_column_count(), 4u);
    const std::size_t released = mapped_rss_kb(copy.parent_array().data());
    expect_same_columns(copy, data.campaigns[0].tree);
    copy.validate_links();
    EXPECT_GT(mapped_rss_kb(copy.parent_array().data()), released);
    // So do the released aggregate sections, on a second materialize.
    expect_snapshot_equal(mapped.materialize(), data);
    fs::remove_all(dir);
  }
}

TEST(Snapshot, BufferedBorrowersNeverSeeAPrivatization) {
  // decode_snapshot's trees borrow heap copies of the sections, which
  // are never released: a DONTNEED there would zero live bytes.
  const SnapshotData data = paged_snapshot();
  SnapshotData decoded = decode_snapshot(encode_snapshot_v5(data));
  const Tree copy = decoded.campaigns[0].tree;
  decoded.campaigns[0].tree.add_node(1, 1.0);
  decoded.campaigns[0].tree.set_contribution(2, 9.0);
  EXPECT_EQ(decoded.campaigns[0].tree.borrowed_column_count(), 0u);
  EXPECT_EQ(copy.borrowed_column_count(), 4u);
  expect_same_columns(copy, data.campaigns[0].tree);
  copy.validate_links();
  expect_same_columns(decoded.campaigns[1].tree, data.campaigns[1].tree);
}

TEST(Snapshot, ChecksummedButUnsafeArenaIsRejected) {
  // The section CRCs vouch for the bytes, and the adoption safety scan
  // still stands behind them: a parent column re-checksummed after a
  // forward reference was written into it passes verify() but is
  // refused by every tree-building reader, never stood up as an arena a
  // traversal could loop in.
  const fs::path dir = fresh_dir("itree_storage_unsafe_arena");
  fs::create_directories(dir);
  const SnapshotData data = sample_snapshot_with_blob();
  std::string image = encode_snapshot_v5(data);
  const Region parent = read_regions(image)[1 + kParentSection];
  store_le(image, parent.offset + 4 * 2, 3, 4);  // parent(2) = 3
  reseal_section(image, 0, kParentSection);

  EXPECT_THROW(decode_snapshot(image), std::invalid_argument);
  save_snapshot_image(dir.string(), image, data.last_seq);
  const MappedSnapshot mapped(
      (dir / snapshot_name(data.last_seq)).string());
  EXPECT_NO_THROW(mapped.verify());
  EXPECT_THROW(mapped.materialize(), std::invalid_argument);
  std::vector<std::string> warnings;
  EXPECT_FALSE(load_latest_snapshot(dir.string(), &warnings).has_value());
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("parent id does not precede the node"),
            std::string::npos)
      << warnings[0];
  fs::remove_all(dir);
}

/// The skew-binary ancestor-skip column (Myers) every image carried
/// while the arena kept one: a pure function of parent and depth.
std::vector<std::uint32_t> legacy_skip_column(const Tree& tree) {
  const std::span<const NodeId> parent = tree.parent_array();
  const std::vector<std::uint32_t> depth = node_depths(tree);
  std::vector<std::uint32_t> skip(tree.node_count(), kRoot);
  for (NodeId u = 1; u < tree.node_count(); ++u) {
    const NodeId p = parent[u];
    const NodeId j1 = skip[p];
    const NodeId j2 = skip[j1];
    skip[u] = depth[p] - depth[j1] == depth[j1] - depth[j2] ? j2 : p;
  }
  return skip;
}

/// The backward sibling chain every image carried while the arena kept
/// a prev-sibling column: the inverse of next_sibling.
std::vector<std::uint32_t> legacy_prev_sibling_column(const Tree& tree) {
  const std::span<const NodeId> next = tree.next_sibling_array();
  std::vector<std::uint32_t> prev(tree.node_count(), kInvalidNode);
  for (NodeId u = 0; u < tree.node_count(); ++u) {
    if (next[u] != kInvalidNode) {
      prev[next[u]] = u;
    }
  }
  return prev;
}

/// Rewrites a current image into the layout of an older writer: each
/// campaign gets a full, CRC'd `section` holding `column(tree)`, appended
/// page-aligned at the end of the file. `count_at` is the entry field
/// that stores the section's count, 0 when readers derive it from the
/// section's offset.
std::string with_legacy_sections(
    std::string image, const SnapshotData& data, std::size_t section,
    std::size_t count_at,
    std::vector<std::uint32_t> (*column)(const Tree&)) {
  for (std::size_t c = 0; c < data.campaigns.size(); ++c) {
    const std::vector<std::uint32_t> values = column(data.campaigns[c].tree);
    const std::size_t at = image.size();
    image.resize(at + (values.size() * 4 + kSnapshotPageSize - 1) /
                          kSnapshotPageSize * kSnapshotPageSize,
                 '\0');
    for (std::size_t u = 0; u < values.size(); ++u) {
      store_le(image, at + 4 * u, values[u], 4);
    }
    const std::size_t entry = entry_at(image, c);
    if (count_at != 0) {
      store_le(image, entry + count_at, values.size(), 8);
    }
    store_le(image, entry + kEntryOffsetsAt + 8 * section, at, 8);
  }
  store_le(image, kPayloadAt + 8, image.size(), 8);
  for (std::size_t c = 0; c < data.campaigns.size(); ++c) {
    reseal_section(image, c, section);
  }
  return image;
}

/// The layout writers produced while the arena kept a skip column.
std::string with_legacy_skip_sections(std::string image,
                                      const SnapshotData& data) {
  return with_legacy_sections(std::move(image), data, kSkipSection, 24,
                              legacy_skip_column);
}

/// The layout writers produced while the arena kept a prev-sibling
/// column.
std::string with_legacy_prev_sibling_sections(std::string image,
                                              const SnapshotData& data) {
  return with_legacy_sections(std::move(image), data, kPrevSiblingSection, 0,
                              legacy_prev_sibling_column);
}

/// The layout writers produced while the arena kept a depth column: a
/// full depth section, and the empty prev-sibling section sharing its
/// offset.
std::string with_legacy_depth_sections(std::string image,
                                       const SnapshotData& data) {
  image = with_legacy_sections(std::move(image), data, kDepthSection, 0,
                               node_depths);
  for (std::size_t c = 0; c < data.campaigns.size(); ++c) {
    const std::size_t offsets = entry_at(image, c) + kEntryOffsetsAt;
    store_le(image, offsets + 8 * kPrevSiblingSection,
             load_le(image, offsets + 8 * kDepthSection, 8), 8);
  }
  reseal_header(image);
  return image;
}

/// An image carrying a full legacy `section` (written by `legacy_writer`)
/// restores bit-equal on the buffered and the mapped path — columns,
/// aggregates and rewards — with every arena column borrowed, and
/// re-encodes to the current image. The section is still checksummed: a
/// flipped byte in it is rejected by every reader with `mismatch`.
void expect_legacy_section_ignored(
    const char* dir_name, std::size_t section, const char* mismatch,
    std::string (*legacy_writer)(std::string, const SnapshotData&)) {
  const fs::path dir = fresh_dir(dir_name);
  fs::create_directories(dir);
  SnapshotData data = sample_snapshot_with_blob();
  Rng rng(1729);
  CampaignSnapshot large;
  large.events_applied = 2000;
  large.tree =
      random_recursive_tree(2000, uniform_contribution(0.0, 2.0), rng);
  data.campaigns.push_back(std::move(large));
  const std::string image = encode_snapshot_v5(data);
  const std::string legacy = legacy_writer(image, data);
  // One page each for the two small campaigns, two for the large one.
  ASSERT_EQ(legacy.size(), image.size() + 4 * kSnapshotPageSize);
  EXPECT_EQ(validate_snapshot_image(legacy), data.last_seq);

  const MechanismPtr mechanism = make_default(MechanismKind::kGeometric);
  const auto expect_source = [&](const SnapshotData& got) {
    expect_snapshot_equal(got, data);
    for (std::size_t c = 0; c < data.campaigns.size(); ++c) {
      const Tree& tree = got.campaigns[c].tree;
      const Tree& want = data.campaigns[c].tree;
      expect_same_tree(tree, want);
      expect_same_columns(tree, want);
      EXPECT_EQ(tree.total_contribution(), want.total_contribution());
      EXPECT_EQ(mechanism->compute(tree), mechanism->compute(want));
      tree.validate_links();
    }
  };
  const SnapshotData decoded = decode_snapshot(legacy);
  expect_source(decoded);
  EXPECT_EQ(encode_snapshot_v5(decoded), image);

  save_snapshot_image(dir.string(), legacy, data.last_seq);
  const fs::path path = dir / snapshot_name(data.last_seq);
  const SnapshotData adopted = MappedSnapshot(path.string()).materialize();
  expect_source(adopted);
  for (const CampaignSnapshot& campaign : adopted.campaigns) {
    EXPECT_EQ(campaign.tree.borrowed_column_count(), 4u);
    EXPECT_EQ(campaign.tree.allocation_count(), 0u);
  }
  EXPECT_EQ(encode_snapshot_v5(adopted), image);

  std::string corrupt = legacy;
  const Region region = read_regions(corrupt)[1 + 2 * 9 + section];
  ASSERT_EQ(region.length, 2001u * 4);
  corrupt[region.offset + 4 * 1000] ^= 0x01;
  write_file(path, corrupt);
  const auto expect_rejected = [&](const auto& read) {
    try {
      read();
      ADD_FAILURE() << "flipped legacy section byte accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(mismatch), std::string::npos)
          << error.what();
    }
  };
  expect_rejected([&] { (void)decode_snapshot(corrupt); });
  expect_rejected([&] { (void)validate_snapshot_image(corrupt); });
  expect_rejected([&] { (void)MappedSnapshot(path.string()).materialize(); });
  fs::remove_all(dir);
}

TEST(Snapshot, LegacySkipSectionIsVerifiedAndIgnored) {
  // Images written while the arena had an ancestor-skip column carry it
  // as a full section. Every reader still accepts them and CRC-checks
  // the section, but never adopts it, and re-encoding writes the
  // current, skip-free image.
  expect_legacy_section_ignored("itree_storage_legacy_skip", kSkipSection,
                                "skip section checksum mismatch",
                                with_legacy_skip_sections);
}

TEST(Snapshot, LegacyPrevSiblingSectionIsVerifiedAndIgnored) {
  // Images written while the arena kept a prev-sibling back pointer
  // carry it as a full section, its count implied by an offset of its
  // own. Every reader CRC-checks it and never adopts it.
  expect_legacy_section_ignored("itree_storage_legacy_prev",
                                kPrevSiblingSection,
                                "prev-sibling section checksum mismatch",
                                with_legacy_prev_sibling_sections);
}

TEST(Snapshot, LegacyDepthSectionIsVerifiedAndIgnored) {
  // Images written while the arena cached each node's depth carry it as
  // a full section, its count implied by an offset of its own. Every
  // reader CRC-checks it and never adopts it.
  expect_legacy_section_ignored("itree_storage_legacy_depth", kDepthSection,
                                "depth section checksum mismatch",
                                with_legacy_depth_sections);
}

/// Each node's oldest child, as the first-child column pre-ring images
/// carried it (kInvalidNode for a leaf).
std::vector<std::uint32_t> legacy_first_child_column(const Tree& tree) {
  std::vector<std::uint32_t> first(tree.node_count(), kInvalidNode);
  for (NodeId u = 0; u < tree.node_count(); ++u) {
    if (!tree.children(u).empty()) {
      first[u] = tree.children(u).front();
    }
  }
  return first;
}

/// The layout writers produced before the sibling ring: a full
/// first-child section, and next_sibling as a chain that ends in
/// kInvalidNode at each newest child.
std::string with_pre_ring_sections(std::string image,
                                   const SnapshotData& data) {
  image = with_legacy_sections(std::move(image), data, kFirstChildSection, 0,
                               legacy_first_child_column);
  for (std::size_t c = 0; c < data.campaigns.size(); ++c) {
    const Tree& tree = data.campaigns[c].tree;
    const std::size_t next = read_regions(image)[1 + c * 9 +
                                                 kNextSiblingSection]
                                 .offset;
    for (const NodeId newest : tree.last_child_array()) {
      if (newest != kInvalidNode) {
        store_le(image, next + 4 * newest, kInvalidNode, 4);
      }
    }
    reseal_section(image, c, kNextSiblingSection);
  }
  return image;
}

TEST(Snapshot, PreRingImagesAreClosedIntoRingsByEveryReader) {
  // An image from before the sibling ring restores bit-equal on the
  // buffered and the mapped path: every reader closes its chains into
  // rings once, in owned memory, adopts every other column in place, and
  // the re-encoded image is the ring layout. Its first-child section is
  // checksummed, and a first-child link out of range is rejected.
  const fs::path dir = fresh_dir("itree_storage_pre_ring");
  fs::create_directories(dir);
  SnapshotData data = sample_snapshot_with_blob();
  Rng rng(4099);
  CampaignSnapshot large;
  large.events_applied = 2000;
  large.tree = random_recursive_tree(2000, uniform_contribution(0.0, 2.0), rng);
  data.campaigns.push_back(std::move(large));
  const std::string image = encode_snapshot_v5(data);
  const std::string pre_ring = with_pre_ring_sections(image, data);
  ASSERT_EQ(pre_ring.size(), image.size() + 4 * kSnapshotPageSize);
  EXPECT_EQ(validate_snapshot_image(pre_ring), data.last_seq);

  const auto expect_source = [&](const SnapshotData& got) {
    expect_snapshot_equal(got, data);
    for (std::size_t c = 0; c < data.campaigns.size(); ++c) {
      expect_same_columns(got.campaigns[c].tree, data.campaigns[c].tree);
      got.campaigns[c].tree.validate_links();
    }
  };
  const SnapshotData decoded = decode_snapshot(pre_ring);
  expect_source(decoded);
  EXPECT_EQ(encode_snapshot_v5(decoded), image);

  save_snapshot_image(dir.string(), pre_ring, data.last_seq);
  const fs::path path = dir / snapshot_name(data.last_seq);
  SnapshotData adopted = MappedSnapshot(path.string()).materialize();
  expect_source(adopted);
  for (const CampaignSnapshot& campaign : adopted.campaigns) {
    EXPECT_EQ(campaign.tree.borrowed_column_count(), 3u);
    EXPECT_EQ(campaign.tree.allocation_count(), 1u);  // the ring
  }
  EXPECT_EQ(encode_snapshot_v5(adopted), image);
  Tree& tree = adopted.campaigns[2].tree;
  const NodeId joined = tree.add_node(7, 1.0);
  EXPECT_EQ(tree.children(7).to_vector().back(), joined);
  tree.validate_links();

  std::string corrupt = pre_ring;
  const Region first = read_regions(corrupt)[1 + 2 * 9 + kFirstChildSection];
  ASSERT_EQ(first.length, 2001u * 4);
  corrupt[first.offset + 4 * 1000] ^= 0x01;
  write_file(path, corrupt);
  const auto expect_rejected = [&](const char* reason, const auto& read) {
    try {
      read();
      ADD_FAILURE() << "accepted: " << reason;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(reason), std::string::npos)
          << error.what();
    }
  };
  const char* mismatch = "first-child section checksum mismatch";
  expect_rejected(mismatch, [&] { (void)decode_snapshot(corrupt); });
  expect_rejected(mismatch, [&] { (void)validate_snapshot_image(corrupt); });
  expect_rejected(mismatch,
                  [&] { (void)MappedSnapshot(path.string()).materialize(); });

  corrupt = pre_ring;
  store_le(corrupt, first.offset + 4 * 1, 2001, 4);
  reseal_section(corrupt, 2, kFirstChildSection);
  write_file(path, corrupt);
  const char* range = "pre-ring child link out of range";
  expect_rejected(range, [&] { (void)decode_snapshot(corrupt); });
  expect_rejected(range,
                  [&] { (void)MappedSnapshot(path.string()).materialize(); });
  fs::remove_all(dir);
}

TEST(Snapshot, HeaderFieldsAreCheckedBeyondTheChecksum) {
  // A header whose CRC matches can still describe an impossible image
  // (a buggy writer, a CRC collision). Each field check rejects its
  // case with its own message — the header CRC is recomputed after every
  // edit, so the checksum is not what decides.
  const std::string image = encode_snapshot_v5(sample_snapshot_with_blob());
  const std::size_t entry = entry_at(image, 0);
  const std::size_t aggregates_offset_at =
      entry + kEntryOffsetsAt + 8 * kAggregatesSection;
  struct Case {
    const char* message;
    std::size_t at;
    std::uint64_t value;
    int bytes;
  };
  const std::vector<Case> cases = {
      {"file size mismatch", kPayloadAt + 8, image.size() + 1, 8},
      {"unsupported page size", kPayloadAt + 16, 2 * kSnapshotPageSize, 4},
      {"campaign count exceeds header", kPayloadAt + 20, 0xffffffffu, 4},
      {"mechanism name truncated", kPayloadAt + 24, 0xffffffffu, 4},
      {"missing the imaginary root row", entry + 8, 0, 8},
      {"impossible node count", entry + 8, kInvalidNode, 8},
      {"skip section count mismatch", entry + 24, 3, 8},
      {"total contribution not finite", entry + 33,
       std::bit_cast<std::uint64_t>(std::numeric_limits<double>::quiet_NaN()),
       8},
      {"section offset not page-aligned", entry + kEntryOffsetsAt,
       load_le(image, entry + kEntryOffsetsAt, 8) + 4, 8},
      {"section offset beyond file", aggregates_offset_at,
       image.size() + kSnapshotPageSize, 8},
      {"section extends beyond file", entry + 16, std::uint64_t{1} << 40, 8},
  };
  for (const Case& edit : cases) {
    std::string corrupt = image;
    store_le(corrupt, edit.at, edit.value, edit.bytes);
    reseal_header(corrupt);
    for (const bool decode : {true, false}) {
      try {
        if (decode) {
          (void)decode_snapshot(corrupt);
        } else {
          (void)validate_snapshot_image(corrupt);
        }
        ADD_FAILURE() << edit.message << ": accepted";
      } catch (const std::invalid_argument& error) {
        EXPECT_NE(std::string(error.what()).find(edit.message),
                  std::string::npos)
            << error.what();
      }
    }
  }
}

TEST(Snapshot, ListingSortsBySeqAndIgnoresStrayFiles) {
  EXPECT_EQ(snapshot_name(0x1234), "snap-0000000000001234.snap");
  const fs::path dir = fresh_dir("itree_storage_listing");
  fs::create_directories(dir);
  const std::uint64_t big = std::uint64_t{1} << 32;
  for (const std::string& name :
       {snapshot_name(10), snapshot_name(big), snapshot_name(2),
        snapshot_name(7) + ".tmp", std::string("snap-zzzzzzzzzzzzzzzz.snap"),
        std::string("snap-000000000000000g.snap"), std::string("snap-12.snap"),
        std::string("MANIFEST")}) {
    write_file(dir / name, "x");
  }
  const std::vector<std::pair<std::uint64_t, std::string>> want = {
      {2, snapshot_name(2)}, {10, snapshot_name(10)}, {big, snapshot_name(big)}};
  EXPECT_EQ(list_snapshots(dir.string()), want);
  fs::remove_all(dir);
}

TEST(Snapshot, SavedImageBytesAreStoredVerbatim) {
  // Replica bootstrap stores the primary's validated bytes as-is under
  // the canonical name; a second save of the same seq replaces the file
  // whole, and no temp file outlives either write.
  const fs::path dir = fresh_dir("itree_storage_save_image");
  fs::create_directories(dir);
  const SnapshotData data = sample_snapshot_with_blob();
  const std::string image = encode_snapshot_v5(data);
  save_snapshot_image(dir.string(), image, data.last_seq);
  const fs::path path = dir / snapshot_name(data.last_seq);
  EXPECT_EQ(read_file(path), image);

  SnapshotData rewritten = data;
  rewritten.campaigns[0].events_applied = 11;
  rewritten.campaigns[0].aggregates.pop_back();
  save_snapshot_image(dir.string(), encode_snapshot_v5(rewritten),
                      data.last_seq);
  expect_snapshot_equal(MappedSnapshot(path.string()).materialize(),
                        rewritten);
  std::size_t files = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().filename().string(),
              snapshot_name(data.last_seq));
    ++files;
  }
  EXPECT_EQ(files, 1u);
  fs::remove_all(dir);
}

TEST(Snapshot, LoaderReportsEverySkippedImageNewestFirst) {
  const fs::path dir = fresh_dir("itree_storage_all_bad");
  fs::create_directories(dir);
  std::vector<std::string> warnings;
  EXPECT_FALSE(load_latest_snapshot(dir.string(), &warnings).has_value());
  EXPECT_TRUE(warnings.empty());

  const std::string image = encode_snapshot_v5(sample_snapshot());
  write_file(dir / snapshot_name(3), image.substr(0, image.size() - 1));
  write_file(dir / snapshot_name(5), "");
  std::string legacy = image;
  legacy.replace(0, 8, "ITSNAP04");
  write_file(dir / snapshot_name(9), legacy);

  EXPECT_FALSE(load_latest_snapshot(dir.string(), &warnings).has_value());
  const std::vector<std::pair<std::uint64_t, std::string>> want = {
      {9, "unsupported snapshot generation ITSNAP04"},
      {5, "file too short"},
      {3, "file size mismatch"}};
  ASSERT_EQ(warnings.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_NE(warnings[i].find(snapshot_name(want[i].first)),
              std::string::npos)
        << warnings[i];
    EXPECT_NE(warnings[i].find(want[i].second), std::string::npos)
        << warnings[i];
  }
  fs::remove_all(dir);
}

TEST(Storage, AdoptRestoreMatchesReplayRestoreForEveryMechanism) {
  // Contract, for every mechanism family (aggregate engine, RCT chain,
  // batch): a mapped image restored through the shared
  // recovery/bootstrap policy adopts the persisted arena in place and
  // yields rewards bit-identical to the uninterrupted original, both at
  // restore time and after further shared traffic. The image carries
  // the live arena — including the history-dependent contribution
  // total — and every incremental FP accumulator bit-exactly.
  const fs::path dir = fresh_dir("itree_storage_adopt");
  for (const MechanismPtr& mechanism : all_mechanisms()) {
    RewardService original(*mechanism);
    for (const Event& event : make_stream(4242, 160)) {
      original.apply(event);
    }
    SnapshotData data;
    data.last_seq = 160;
    data.mechanism = mechanism->display_name();
    CampaignSnapshot snap;
    snap.events_applied = original.events_applied();
    snap.tree = original.tree();
    snap.aggregate_kind =
        static_cast<std::uint8_t>(original.aggregate_kind());
    snap.aggregates = original.export_aggregates();
    data.campaigns.push_back(std::move(snap));

    fs::create_directories(dir);
    save_snapshot(dir.string(), data);
    SnapshotData mapped =
        MappedSnapshot((dir / snapshot_name(data.last_seq)).string())
            .materialize();
    EXPECT_EQ(mapped.campaigns[0].tree.borrowed_column_count(), 4u);
    RecordingService adopted(*mechanism);
    restore_campaign_from_snapshot(adopted, std::move(mapped.campaigns[0]),
                                   0);

    EXPECT_EQ(adopted.service().events_applied(), original.events_applied());
    expect_same_tree(adopted.service().tree(), original.tree());
    EXPECT_EQ(adopted.service().rewards(), original.rewards())
        << mechanism->display_name();

    // The adopted state keeps matching under further traffic (the first
    // join also privatizes the borrowed columns mid-stream).
    for (const Event& event : make_stream(99, 50)) {
      adopted.apply(event);
      original.apply(event);
    }
    EXPECT_EQ(adopted.service().rewards(), original.rewards())
        << mechanism->display_name();
    fs::remove_all(dir);
  }
}

TEST(Storage, KindMismatchedBlobFailsStop) {
  // A service's accumulator family is a pure function of its mechanism,
  // so a blob of another family — or none at all for an incremental
  // service — can only come from a foreign image. Recovery and replica
  // bootstrap refuse it, naming the campaign, rather than serve a state
  // that cannot resume bit for bit.
  const MechanismPtr mechanism = make_default(MechanismKind::kGeometric);
  RewardService original(*mechanism);
  for (const Event& event : make_stream(515, 80)) {
    original.apply(event);
  }
  const auto expect_fail_stop = [&](std::uint8_t kind,
                                    std::vector<double> aggregates) {
    CampaignSnapshot snap;
    snap.events_applied = original.events_applied();
    snap.tree = original.tree();
    snap.aggregate_kind = kind;
    snap.aggregates = std::move(aggregates);
    RecordingService restored(*mechanism);
    try {
      restore_campaign_from_snapshot(restored, std::move(snap), 3);
      ADD_FAILURE() << "kind " << int{kind} << " restored without a throw";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("campaign 3"),
                std::string::npos)
          << error.what();
    }
  };
  expect_fail_stop(2, {1.0, 2.0});  // kRctChain: wrong family for geometric
  expect_fail_stop(1, {});          // right family, but no blob
}

TEST(Storage, BatchModeImageRebuildsItsAccumulators) {
  // Earlier batch-mode services wrote their campaigns with kind 0 and no
  // blob. Such an image restores: the service rebuilds its accumulators
  // from the tree in O(n), serves within the audit tolerance of the
  // uninterrupted run, and keeps doing so under further traffic.
  const fs::path dir = fresh_dir("itree_storage_kind0");
  for (const char* name :
       {"l-pachira", "norm-preliminary-tdrm", "geometric", "tdrm"}) {
    const MechanismPtr mechanism =
        make_mechanism(name, parse_param_string(""));
    RewardService original(*mechanism);
    for (const Event& event : make_stream(616, 200)) {
      original.apply(event);
    }
    SnapshotData data;
    data.last_seq = 200;
    data.mechanism = mechanism->display_name();
    CampaignSnapshot snap;
    snap.events_applied = original.events_applied();
    snap.tree = original.tree();
    snap.aggregate_kind = static_cast<std::uint8_t>(AggregateKind::kNone);
    data.campaigns.push_back(std::move(snap));
    fs::create_directories(dir);
    save_snapshot(dir.string(), data);
    SnapshotData mapped =
        MappedSnapshot((dir / snapshot_name(data.last_seq)).string())
            .materialize();
    RecordingService restored(*mechanism);
    restore_campaign_from_snapshot(restored, std::move(mapped.campaigns[0]),
                                   0);
    EXPECT_EQ(restored.service().events_applied(),
              original.events_applied());
    const auto expect_close = [&](const char* when) {
      EXPECT_LT(restored.service().audit(), 1e-9) << name << when;
      const RewardVector& got = restored.service().rewards();
      const RewardVector& want = original.rewards();
      ASSERT_EQ(got.size(), want.size()) << name << when;
      for (std::size_t u = 0; u < want.size(); ++u) {
        ASSERT_NEAR(got[u], want[u], 1e-9) << name << when << " node " << u;
      }
    };
    expect_close(" after restore");
    for (const Event& event : make_stream(617, 60)) {
      restored.apply(event);
      original.apply(event);
    }
    expect_close(" after more traffic");
    fs::remove_all(dir);
  }
}

// --- Storage engine -------------------------------------------------

/// Applies `count` events of each stream through a Storage in `dir`,
/// committing in small groups, with one mid-run snapshot.
void run_workload(const Mechanism& mechanism,
                  const std::vector<std::vector<Event>>& streams,
                  StorageConfig config, std::size_t snapshot_at) {
  Storage storage(mechanism, streams.size(), std::move(config));
  const std::size_t count = streams[0].size();
  for (std::size_t i = 0; i < count; ++i) {
    for (std::size_t c = 0; c < streams.size(); ++c) {
      storage.apply(static_cast<std::uint32_t>(c), streams[c][i]);
    }
    if (i % 7 == 6) {
      storage.commit();
    }
    if (i == snapshot_at) {
      storage.snapshot_now();
    }
  }
  storage.commit();
}

/// The headline invariant. Runs a two-campaign workload (snapshot
/// mid-way, several WAL segments), then simulates a crash at *every*
/// byte length of the final WAL segment and checks that recovery
/// yields, per campaign, exactly an event-prefix of the original
/// stream with bit-identical rewards to an uninterrupted run over that
/// prefix.
void crash_sweep(const std::string& mechanism_name) {
  const MechanismPtr mechanism =
      make_mechanism(mechanism_name, parse_param_string(""));
  const fs::path dir = fresh_dir("itree_storage_sweep_" + mechanism_name);
  const std::size_t kEvents = 120;
  const std::vector<std::vector<Event>> streams = {
      make_stream(901, kEvents), make_stream(902, kEvents)};

  StorageConfig config;
  config.data_dir = dir.string();
  config.fsync = FsyncPolicy::kNever;
  config.segment_bytes = 1500;  // forces several segments
  run_workload(*mechanism, streams, config, kEvents / 2);

  const auto segments = list_wal_segments(dir.string());
  ASSERT_FALSE(segments.empty());
  const fs::path last = dir / segments.back().second;
  const std::string full_tail = read_file(last);
  ASSERT_GT(full_tail.size(), 0u);

  std::size_t prefix_lengths_seen = 0;
  for (std::size_t cut = 0; cut <= full_tail.size(); ++cut) {
    write_file(last, full_tail.substr(0, cut));
    const RecoveryResult recovered =
        recover_campaigns(*mechanism, streams.size(), dir.string());
    for (std::size_t c = 0; c < streams.size(); ++c) {
      const RewardService& service = recovered.campaigns[c]->service();
      const std::size_t survived = service.events_applied();
      ASSERT_LE(survived, kEvents);
      // Uninterrupted reference run over the surviving prefix.
      RewardService reference(*mechanism);
      for (std::size_t i = 0; i < survived; ++i) {
        reference.apply(streams[c][i]);
      }
      const RewardVector& got = service.rewards();
      const RewardVector& want = reference.rewards();
      ASSERT_EQ(got.size(), want.size()) << "cut " << cut;
      for (std::size_t u = 0; u < want.size(); ++u) {
        // Bit-identical, not approximately equal.
        ASSERT_EQ(got[u], want[u]) << "cut " << cut << " campaign " << c;
      }
      if (c == 0) {
        ++prefix_lengths_seen;
      }
    }
  }
  // Sanity: the sweep exercised many distinct surviving prefixes.
  EXPECT_GT(prefix_lengths_seen, full_tail.size() / 2);
  fs::remove_all(dir);
}

TEST(Storage, CrashAtEveryByteRecoversAPrefixBitExactlyTdrm) {
  crash_sweep("tdrm");
}

TEST(Storage, CrashAtEveryByteRecoversAPrefixBitExactlyCdrm) {
  crash_sweep("cdrm-1");
}

TEST(Storage, CrashAtEveryByteRecoversAPrefixBitExactlyLPachira) {
  crash_sweep("l-pachira");
}

TEST(Storage, CrashAtEveryByteRecoversAPrefixBitExactlyNormalizedTdrm) {
  crash_sweep("norm-preliminary-tdrm");
}

TEST(Storage, RecoveredStateIsIdenticalAtEveryThreadCount) {
  const MechanismPtr mechanism = make_default(MechanismKind::kCdrmReciprocal);
  const std::size_t kCampaigns = 4;
  const std::size_t kEvents = 150;
  std::vector<std::vector<Event>> streams;
  for (std::size_t c = 0; c < kCampaigns; ++c) {
    streams.push_back(make_stream(700 + c, kEvents));
  }

  std::vector<RewardVector> reference;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    set_thread_count(threads);
    const fs::path dir = fresh_dir("itree_storage_threads");
    {
      StorageConfig config;
      config.data_dir = dir.string();
      config.fsync = FsyncPolicy::kNever;
      config.snapshot_every = 100;
      Storage storage(*mechanism, kCampaigns, config);
      // Campaign groups on the pool, exactly like a server tick: the
      // cross-campaign WAL interleave is schedule-dependent, the
      // per-campaign order is not.
      for (std::size_t i = 0; i < kEvents; i += 10) {
        parallel_for(kCampaigns, [&](std::size_t c) {
          for (std::size_t j = i; j < i + 10; ++j) {
            storage.apply(static_cast<std::uint32_t>(c), streams[c][j]);
          }
        });
        storage.commit();
      }
    }
    const RecoveryResult recovered =
        recover_campaigns(*mechanism, kCampaigns, dir.string());
    std::vector<RewardVector> rewards;
    for (std::size_t c = 0; c < kCampaigns; ++c) {
      EXPECT_EQ(recovered.campaigns[c]->service().events_applied(), kEvents);
      rewards.push_back(recovered.campaigns[c]->service().rewards());
    }
    if (reference.empty()) {
      reference = std::move(rewards);
    } else {
      EXPECT_EQ(rewards, reference) << threads << " threads";
    }
    fs::remove_all(dir);
  }
  set_thread_count(0);
}

/// Per-campaign stream whose joins refer to participants created at
/// most 16 events earlier and whose contributions hit the newest ids,
/// so the replay's lookahead keeps naming ids the tree does not hold
/// yet.
std::vector<Event> make_recent_stream(std::uint64_t seed, std::size_t count) {
  Rng rng(seed);
  std::vector<Event> events;
  events.reserve(count);
  std::size_t participants = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t recent = std::min<std::size_t>(participants, 16);
    if (participants == 0 || rng.bernoulli(0.6)) {
      const NodeId referrer =
          participants == 0
              ? kRoot
              : static_cast<NodeId>(participants - rng.index(recent));
      events.push_back(JoinEvent{referrer, rng.uniform(0.0, 3.0)});
      ++participants;
    } else {
      events.push_back(
          ContributeEvent{static_cast<NodeId>(participants - rng.index(recent)),
                          rng.uniform(0.0, 2.0)});
    }
  }
  return events;
}

TEST(Storage, ReplayLookaheadPastTheTreeEnd) {
  // Three campaigns interleaved at random in the WAL, recovered from
  // the empty state and from a mid-run snapshot. Replay prefetches 16
  // and 8 events ahead, where joins and contributions name ids that
  // are not in the tree yet; the hints must clamp them, and the
  // recovered rewards must equal an uninterrupted run bit for bit.
  const std::size_t kCampaigns = 3;
  const std::size_t kEvents = 1500;
  std::vector<std::vector<Event>> streams;
  for (std::size_t c = 0; c < kCampaigns; ++c) {
    streams.push_back(make_recent_stream(1300 + c, kEvents));
  }
  for (const char* name : {"geometric", "cdrm-1", "split-proof", "tdrm"}) {
    const MechanismPtr mechanism =
        make_mechanism(name, parse_param_string(""));
    for (const bool with_snapshot : {false, true}) {
      const fs::path dir = fresh_dir("itree_storage_lookahead");
      {
        StorageConfig config;
        config.data_dir = dir.string();
        config.fsync = FsyncPolicy::kNever;
        Storage storage(*mechanism, kCampaigns, config);
        Rng order(77);
        std::vector<std::size_t> next(kCampaigns, 0);
        std::size_t applied = 0;
        while (applied < kCampaigns * kEvents) {
          const std::size_t c = order.index(kCampaigns);
          if (next[c] == kEvents) {
            continue;
          }
          storage.apply(static_cast<std::uint32_t>(c), streams[c][next[c]++]);
          if (++applied == kEvents / 2 && with_snapshot) {
            storage.snapshot_now();
          }
        }
        storage.commit();
      }
      const RecoveryResult recovered =
          recover_campaigns(*mechanism, kCampaigns, dir.string());
      EXPECT_EQ(recovered.report.used_snapshot, with_snapshot);
      EXPECT_EQ(recovered.report.tail_records,
                kCampaigns * kEvents - (with_snapshot ? kEvents / 2 : 0));
      for (std::size_t c = 0; c < kCampaigns; ++c) {
        RewardService live(*mechanism);
        for (const Event& event : streams[c]) {
          live.apply(event);
        }
        const RewardVector& got = recovered.campaigns[c]->service().rewards();
        const RewardVector& want = live.rewards();
        ASSERT_EQ(got.size(), want.size()) << name << " campaign " << c;
        for (std::size_t u = 0; u < want.size(); ++u) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got[u]),
                    std::bit_cast<std::uint64_t>(want[u]))
              << name << " campaign " << c << " node " << u
              << (with_snapshot ? " (snapshot + tail)" : " (tail only)");
        }
      }
      fs::remove_all(dir);
    }
  }
}

TEST(Storage, RecoveryReportTimesEachStage) {
  const MechanismPtr mechanism = make_default(MechanismKind::kCdrmReciprocal);
  const fs::path dir = fresh_dir("itree_storage_stages");
  const std::size_t kEvents = 150;
  StorageConfig config;
  config.data_dir = dir.string();
  config.fsync = FsyncPolicy::kNever;
  run_workload(*mechanism, {make_stream(41, kEvents), make_stream(42, kEvents)},
               config, kEvents / 2);

  const double start = monotonic_seconds();
  const RecoveryResult recovered =
      recover_campaigns(*mechanism, 2, dir.string());
  const double wall = monotonic_seconds() - start;
  const RecoveryReport& report = recovered.report;
  ASSERT_TRUE(report.used_snapshot);
  ASSERT_GT(report.tail_records, 0u);
  EXPECT_GT(report.snapshot_s, 0.0);
  EXPECT_GT(report.wal_scan_s, 0.0);
  EXPECT_GT(report.replay_s, 0.0);
  EXPECT_LE(report.snapshot_s + report.wal_scan_s + report.replay_s, wall);
  fs::remove_all(dir);
}

TEST(Storage, WritableOpenTruncatesTheTornTailAndContinues) {
  const MechanismPtr mechanism = make_default(MechanismKind::kTdrm);
  const fs::path dir = fresh_dir("itree_storage_torn");
  const std::vector<std::vector<Event>> streams = {make_stream(333, 40)};
  StorageConfig config;
  config.data_dir = dir.string();
  config.fsync = FsyncPolicy::kNever;
  run_workload(*mechanism, streams, config, 20);

  // Simulate a torn final write.
  auto segments = list_wal_segments(dir.string());
  ASSERT_FALSE(segments.empty());
  const fs::path last = dir / segments.back().second;
  const std::string original = read_file(last);
  write_file(last, original + "torn!");

  std::size_t survived = 0;
  {
    Storage storage(*mechanism, 1, config);
    EXPECT_EQ(storage.recovery().truncated_bytes, 5u);
    ASSERT_EQ(storage.recovery().warnings.size(), 1u);
    survived = storage.campaign(0).service().events_applied();
    EXPECT_EQ(survived, 40u);
    // The tail is gone from disk too, and the engine keeps accepting.
    EXPECT_EQ(read_file(last), original);
    storage.apply(0, JoinEvent{kRoot, 1.0});
    storage.commit();
  }
  Storage reopened(*mechanism, 1, config);
  EXPECT_TRUE(reopened.recovery().warnings.empty());
  EXPECT_EQ(reopened.campaign(0).service().events_applied(), survived + 1);
  fs::remove_all(dir);
}

TEST(Storage, MidLogDamageIsFatalNotSilent) {
  const MechanismPtr mechanism = make_default(MechanismKind::kTdrm);
  const fs::path dir = fresh_dir("itree_storage_midlog");
  const std::vector<std::vector<Event>> streams = {make_stream(444, 80)};
  StorageConfig config;
  config.data_dir = dir.string();
  config.fsync = FsyncPolicy::kNever;
  config.segment_bytes = 600;
  // No snapshot: the whole history lives in the WAL.
  run_workload(*mechanism, streams, config, kInvalidNode);

  auto segments = list_wal_segments(dir.string());
  ASSERT_GE(segments.size(), 3u);

  // Corruption inside a non-final segment: fail stop.
  const fs::path middle = dir / segments[1].second;
  const std::string original = read_file(middle);
  std::string corrupt = original;
  corrupt[corrupt.size() / 2] ^= 0x20;
  write_file(middle, corrupt);
  EXPECT_THROW(recover_campaigns(*mechanism, 1, dir.string()),
               std::runtime_error);
  write_file(middle, original);

  // A missing segment is a sequence gap: fail stop.
  fs::remove(middle);
  EXPECT_THROW(recover_campaigns(*mechanism, 1, dir.string()),
               std::runtime_error);
  fs::remove_all(dir);
}

// --- Streamed recovery ------------------------------------------------
//
// recover_campaigns() reads each segment through a bounded window and
// replays in per-campaign blocks. Every case below is also recovered by
// the whole-segment algorithm it replaced, written out here as a
// reference: each must either recover bit-equal to it or fail with the
// same message.

/// What one recovery produced: its error, or its per-campaign rewards
/// and report.
struct RecoveryOutcome {
  std::string error;
  std::vector<RewardVector> rewards;
  std::uint64_t next_seq = 0;
  std::uint64_t tail_records = 0;
  std::string torn_segment_path;
  std::uint64_t torn_valid_bytes = 0;
  std::vector<std::string> warnings;
};

RecoveryOutcome streamed_recovery(const Mechanism& mechanism,
                                  std::size_t campaigns,
                                  const fs::path& dir) {
  RecoveryOutcome outcome;
  try {
    RecoveryResult result =
        recover_campaigns(mechanism, campaigns, dir.string());
    for (const auto& campaign : result.campaigns) {
      outcome.rewards.push_back(campaign->service().rewards());
    }
    outcome.next_seq = result.next_seq;
    outcome.tail_records = result.report.tail_records;
    outcome.torn_segment_path = result.torn_segment_path;
    outcome.torn_valid_bytes = result.torn_valid_bytes;
    outcome.warnings = result.report.warnings;
  } catch (const std::exception& error) {
    outcome.error = error.what();
  }
  return outcome;
}

/// The whole-segment recovery: scan a segment into memory, check every
/// record, split it per campaign, then replay campaign by campaign.
RecoveryOutcome whole_segment_recovery(const Mechanism& mechanism,
                                       std::size_t campaign_count,
                                       const fs::path& dir) {
  RecoveryOutcome outcome;
  try {
    std::vector<std::unique_ptr<RecordingService>> campaigns;
    for (std::size_t c = 0; c < campaign_count; ++c) {
      campaigns.push_back(std::make_unique<RecordingService>(mechanism));
    }
    std::uint64_t snapshot_seq = 0;
    std::vector<std::string> warnings;
    if (auto snapshot = load_latest_snapshot(dir.string(), &warnings)) {
      for (std::size_t c = 0; c < campaign_count; ++c) {
        restore_campaign_from_snapshot(
            *campaigns[c], std::move(snapshot->campaigns[c]), c);
      }
      snapshot_seq = snapshot->last_seq;
    }
    const auto segments = list_wal_segments(dir.string());
    std::uint64_t expected_seq = snapshot_seq + 1;
    std::uint64_t tail_records = 0;
    std::string torn_segment_path;
    std::uint64_t torn_valid_bytes = 0;
    for (std::size_t i = 0; i < segments.size(); ++i) {
      if (i + 1 < segments.size() &&
          segments[i + 1].first <= snapshot_seq + 1) {
        continue;
      }
      const std::string path = (dir / segments[i].second).string();
      const WalScan scan = scan_wal_file(path);
      if (!scan.clean) {
        if (i + 1 < segments.size()) {
          throw std::runtime_error(
              "storage: corruption inside non-final WAL segment " +
              segments[i].second + " (" + scan.truncation_reason +
              "); refusing to skip committed history");
        }
        torn_segment_path = path;
        torn_valid_bytes = scan.valid_bytes;
        warnings.push_back(
            "torn tail in " + segments[i].second + " (" +
            scan.truncation_reason + "): " +
            std::to_string(fs::file_size(path) - scan.valid_bytes) +
            " bytes discarded");
      }
      std::vector<std::vector<Event>> tails(campaign_count);
      for (const WalRecord& record : scan.records) {
        if (record.seq <= snapshot_seq) {
          continue;
        }
        if (record.seq != expected_seq) {
          throw std::runtime_error(
              "storage: WAL sequence gap in " + segments[i].second +
              ": expected " + std::to_string(expected_seq) + ", found " +
              std::to_string(record.seq));
        }
        if (record.campaign >= campaign_count) {
          throw std::runtime_error(
              "storage: WAL record for campaign " +
              std::to_string(record.campaign) + " but deployment has " +
              std::to_string(campaign_count));
        }
        tails[record.campaign].push_back(record.event);
        ++expected_seq;
      }
      for (std::size_t c = 0; c < campaign_count; ++c) {
        campaigns[c]->replay(tails[c]);
        tail_records += tails[c].size();
      }
    }
    for (const auto& campaign : campaigns) {
      outcome.rewards.push_back(campaign->service().rewards());
    }
    outcome.next_seq = expected_seq;
    outcome.tail_records = tail_records;
    outcome.torn_segment_path = torn_segment_path;
    outcome.torn_valid_bytes = torn_valid_bytes;
    outcome.warnings = warnings;
  } catch (const std::exception& error) {
    outcome.error = error.what();
  }
  return outcome;
}

void expect_same_recovery(const Mechanism& mechanism, std::size_t campaigns,
                          const fs::path& dir, const std::string& what) {
  const RecoveryOutcome got = streamed_recovery(mechanism, campaigns, dir);
  const RecoveryOutcome want =
      whole_segment_recovery(mechanism, campaigns, dir);
  EXPECT_EQ(got.error, want.error) << what;
  ASSERT_EQ(got.rewards.size(), want.rewards.size()) << what;
  for (std::size_t c = 0; c < got.rewards.size(); ++c) {
    ASSERT_EQ(got.rewards[c].size(), want.rewards[c].size()) << what;
    for (std::size_t u = 0; u < got.rewards[c].size(); ++u) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got.rewards[c][u]),
                std::bit_cast<std::uint64_t>(want.rewards[c][u]))
          << what << ": campaign " << c << " node " << u;
    }
  }
  EXPECT_EQ(got.next_seq, want.next_seq) << what;
  EXPECT_EQ(got.tail_records, want.tail_records) << what;
  EXPECT_EQ(got.torn_segment_path, want.torn_segment_path) << what;
  EXPECT_EQ(got.torn_valid_bytes, want.torn_valid_bytes) << what;
  EXPECT_EQ(got.warnings, want.warnings) << what;
}

/// `count` records of three interleaved campaign streams, seq 1..count:
/// ~1.1 MB at 30000, so one segment spans more than one read window.
std::vector<WalRecord> interleaved_records(std::size_t count) {
  std::vector<std::vector<Event>> streams;
  for (std::uint64_t c = 0; c < 3; ++c) {
    streams.push_back(make_stream(900 + c, count / 3 + 1));
  }
  std::vector<WalRecord> records;
  for (std::size_t i = 0; i < count; ++i) {
    records.push_back(WalRecord{i + 1, static_cast<std::uint32_t>(i % 3),
                                streams[i % 3][i / 3]});
  }
  return records;
}

/// Writes `records` as one segment named after `first_seq`.
void write_segment(const fs::path& dir, std::uint64_t first_seq,
                   const std::vector<WalRecord>& records) {
  fs::create_directories(dir);
  write_file(dir / wal_segment_name(first_seq), encode_all(records));
}

TEST(StreamedRecovery, WindowStraddlingRecordsRecoverBitEqual) {
  const MechanismPtr mechanism = make_default(MechanismKind::kCdrmReciprocal);
  const fs::path dir = fresh_dir("itree_streamed_straddle");
  const std::vector<WalRecord> records = interleaved_records(30000);
  // The window ends inside a record: 1 MiB is not a multiple of 37.
  ASSERT_NE(WalSegmentReader::kWindowBytes % kWalRecordBytes, 0u);
  ASSERT_GT(records.size() * kWalRecordBytes, WalSegmentReader::kWindowBytes);
  write_segment(dir, 1, records);
  expect_same_recovery(*mechanism, 3, dir, "one segment");
  const RecoveryOutcome got = streamed_recovery(*mechanism, 3, dir);
  EXPECT_EQ(got.tail_records, records.size());
  EXPECT_TRUE(got.error.empty()) << got.error;

  // The same records split over two segments, the first ending mid-way
  // through the second window.
  fs::remove_all(dir);
  const std::size_t split = 29000;
  write_segment(dir, 1, {records.begin(), records.begin() + split});
  write_segment(dir, split + 1, {records.begin() + split, records.end()});
  expect_same_recovery(*mechanism, 3, dir, "two segments");
  fs::remove_all(dir);
}

TEST(StreamedRecovery, ReaderYieldsTheScannersRecordsAtEveryWindow) {
  const fs::path dir = fresh_dir("itree_streamed_reader");
  const std::vector<WalRecord> records = interleaved_records(5000);
  std::string bytes = encode_all(records);
  bytes += std::string(5, '\x7f');  // a torn tail
  fs::create_directories(dir);
  const fs::path path = dir / "segment";
  write_file(path, bytes);
  const WalScan want = scan_wal(bytes);
  for (const std::size_t window :
       {WalSegmentReader::kMinWindowBytes,
        WalSegmentReader::kMinWindowBytes + 1, std::size_t{100000},
        WalSegmentReader::kWindowBytes}) {
    WalSegmentReader reader(path.string(), window);
    std::vector<WalRecord> got;
    WalRecord record;
    while (reader.next(&record)) {
      got.push_back(record);
    }
    EXPECT_EQ(got, want.records) << "window " << window;
    EXPECT_EQ(reader.valid_bytes(), want.valid_bytes) << "window " << window;
    EXPECT_EQ(reader.clean(), want.clean);
    EXPECT_EQ(reader.truncation_reason(), want.truncation_reason);
  }
  fs::remove_all(dir);
}

TEST(StreamedRecovery, TornTailInTheLastWindowRecoversThePrefix) {
  const MechanismPtr mechanism = make_default(MechanismKind::kCdrmReciprocal);
  const fs::path dir = fresh_dir("itree_streamed_torn");
  const std::vector<WalRecord> records = interleaved_records(30000);
  const std::string bytes = encode_all(records);
  fs::create_directories(dir);
  const fs::path path = dir / wal_segment_name(1);
  // Cuts inside the last window: mid-header, mid-payload, and a flipped
  // CRC byte of the final record; plus garbage past a clean end.
  for (const std::size_t cut : {bytes.size() - 3, bytes.size() - 20,
                                bytes.size() - kWalRecordBytes - 11}) {
    write_file(path, bytes.substr(0, cut));
    expect_same_recovery(*mechanism, 3, dir, "cut at " + std::to_string(cut));
    const RecoveryOutcome got = streamed_recovery(*mechanism, 3, dir);
    EXPECT_EQ(got.warnings.size(), 1u);
    EXPECT_LT(got.torn_valid_bytes, cut);
  }
  std::string flipped = bytes;
  flipped[bytes.size() - kWalRecordBytes + 5] ^= 0x01;
  write_file(path, flipped);
  expect_same_recovery(*mechanism, 3, dir, "flipped CRC of the last record");
  write_file(path, bytes + "garbage");
  expect_same_recovery(*mechanism, 3, dir, "garbage after the last record");
  fs::remove_all(dir);
}

TEST(StreamedRecovery, DamageInANonFinalSegmentFailsWithTheSameMessage) {
  const MechanismPtr mechanism = make_default(MechanismKind::kCdrmReciprocal);
  const fs::path dir = fresh_dir("itree_streamed_midlog");
  const std::vector<WalRecord> records = interleaved_records(31000);
  const std::size_t split = 30000;
  const std::vector<WalRecord> first(records.begin(),
                                     records.begin() + split);
  const std::vector<WalRecord> second(records.begin() + split,
                                      records.end());
  const auto reset = [&] {
    fs::remove_all(dir);
    write_segment(dir, 1, first);
    write_segment(dir, split + 1, second);
  };

  // A CRC mismatch past the first read window.
  reset();
  std::string damaged = encode_all(first);
  damaged[29000 * kWalRecordBytes + 20] ^= 0x04;
  write_file(dir / wal_segment_name(1), damaged);
  expect_same_recovery(*mechanism, 3, dir, "CRC mismatch");
  EXPECT_NE(streamed_recovery(*mechanism, 3, dir)
                .error.find("corruption inside non-final WAL segment"),
            std::string::npos);

  // A sequence gap past the first read window.
  reset();
  std::vector<WalRecord> gapped = first;
  gapped.erase(gapped.begin() + 29500);
  write_segment(dir, 1, gapped);
  expect_same_recovery(*mechanism, 3, dir, "sequence gap");
  EXPECT_NE(streamed_recovery(*mechanism, 3, dir).error.find("expected 29501"),
            std::string::npos);

  // Both: the damage is reported, as the whole-segment scan did, even
  // though the gap comes first in the file.
  damaged = encode_all(gapped);
  damaged[29800 * kWalRecordBytes + 20] ^= 0x04;
  write_file(dir / wal_segment_name(1), damaged);
  expect_same_recovery(*mechanism, 3, dir, "gap then damage");
  EXPECT_NE(streamed_recovery(*mechanism, 3, dir)
                .error.find("corruption inside non-final WAL segment"),
            std::string::npos);
  fs::remove_all(dir);
}

TEST(StreamedRecovery, RecordPastTheCampaignCountFailsWithTheSameMessage) {
  const MechanismPtr mechanism = make_default(MechanismKind::kCdrmReciprocal);
  const fs::path dir = fresh_dir("itree_streamed_campaign");
  std::vector<WalRecord> records = interleaved_records(9000);
  records[8000].campaign = 7;
  write_segment(dir, 1, records);
  expect_same_recovery(*mechanism, 3, dir, "campaign 7 of 3");
  EXPECT_EQ(streamed_recovery(*mechanism, 3, dir).error,
            "storage: WAL record for campaign 7 but deployment has 3");
  fs::remove_all(dir);
}

TEST(StreamedRecovery, ReplayErrorsReportTheLowestFailingCampaign) {
  // Records that pass every check but that a campaign rejects: the one
  // reported is the lowest campaign's first, although campaign 2 fails
  // in an earlier replay block than campaign 1.
  const MechanismPtr mechanism = make_default(MechanismKind::kCdrmReciprocal);
  const fs::path dir = fresh_dir("itree_streamed_replay");
  std::vector<WalRecord> records = interleaved_records(20000);
  ASSERT_EQ(records[3002].campaign, 2u);
  records[3002].event = ContributeEvent{888888, 1.0};
  write_segment(dir, 1, records);
  const std::string campaign_2_error =
      streamed_recovery(*mechanism, 3, dir).error;
  ASSERT_FALSE(campaign_2_error.empty());

  ASSERT_EQ(records[15001].campaign, 1u);
  records[15001].event = JoinEvent{777777, 1.0};
  write_segment(dir, 1, records);
  expect_same_recovery(*mechanism, 3, dir, "replay errors");
  const std::string error = streamed_recovery(*mechanism, 3, dir).error;
  EXPECT_FALSE(error.empty());
  EXPECT_NE(error, campaign_2_error);
  fs::remove_all(dir);
}

TEST(StreamedRecovery, SnapshotCoveredRecordsAreSkipped) {
  // A snapshot mid-way through a segment: the records it covers are
  // read past, the rest replayed, as before.
  const MechanismPtr mechanism = make_default(MechanismKind::kGeometric);
  const fs::path dir = fresh_dir("itree_streamed_snapshot");
  StorageConfig config;
  config.data_dir = dir.string();
  config.fsync = FsyncPolicy::kNever;
  config.segment_bytes = 200000;
  run_workload(*mechanism, {make_stream(71, 6000), make_stream(72, 6000)},
               config, 4000);
  expect_same_recovery(*mechanism, 2, dir, "snapshot at 4000");
  fs::remove_all(dir);
}

TEST(Storage, ManifestGuardsIdentity) {
  const MechanismPtr tdrm = make_default(MechanismKind::kTdrm);
  const MechanismPtr geometric = make_default(MechanismKind::kGeometric);
  const fs::path dir = fresh_dir("itree_storage_manifest");
  StorageConfig config;
  config.data_dir = dir.string();
  config.fsync = FsyncPolicy::kNever;
  { Storage storage(*tdrm, 2, config); }

  const Manifest manifest = read_manifest(dir.string());
  EXPECT_EQ(manifest.campaigns, 2u);
  EXPECT_EQ(manifest.display, tdrm->display_name());

  EXPECT_THROW(Storage(*geometric, 2, config), std::runtime_error);
  EXPECT_THROW(Storage(*tdrm, 3, config), std::runtime_error);
  { Storage storage(*tdrm, 2, config); }  // matching identity reopens

  // Directories written when the snapshot generation was configurable
  // carry a "snapshot-format" line; unknown keys are tolerated.
  {
    std::ofstream manifest_file(dir / "MANIFEST", std::ios::app);
    manifest_file << "snapshot-format v4\n";
  }
  EXPECT_EQ(read_manifest(dir.string()).display, tdrm->display_name());
  { Storage storage(*tdrm, 2, config); }

  EXPECT_THROW(read_manifest(fs::temp_directory_path().string()),
               std::runtime_error);
  fs::remove_all(dir);
}

TEST(Storage, SnapshotsCompactTheLogAndBoundRestart) {
  const MechanismPtr mechanism = make_default(MechanismKind::kGeometric);
  const fs::path dir = fresh_dir("itree_storage_compact");
  const std::size_t kEvents = 400;
  const std::vector<std::vector<Event>> streams = {make_stream(555, kEvents)};
  StorageConfig config;
  config.data_dir = dir.string();
  config.fsync = FsyncPolicy::kNever;
  config.snapshot_every = 90;
  config.segment_bytes = 1024;
  std::uint64_t deleted = 0;
  {
    Storage storage(*mechanism, 1, config);
    for (std::size_t i = 0; i < kEvents; ++i) {
      storage.apply(0, streams[0][i]);
      if (i % 8 == 7) {
        storage.commit();
      }
    }
    storage.commit();
    EXPECT_GE(storage.counters().snapshots_written, 3u);
    deleted = storage.counters().segments_deleted;
  }
  EXPECT_GT(deleted, 0u);
  // Retention: at most two snapshots; the WAL holds only the tail
  // after the newest snapshot.
  EXPECT_LE(list_snapshots(dir.string()).size(), 2u);
  const auto snapshots = list_snapshots(dir.string());
  ASSERT_FALSE(snapshots.empty());
  for (const auto& [first_seq, name] : list_wal_segments(dir.string())) {
    EXPECT_GT(first_seq, snapshots.back().first);
  }

  const RecoveryResult recovered =
      recover_campaigns(*mechanism, 1, dir.string());
  EXPECT_TRUE(recovered.report.used_snapshot);
  EXPECT_EQ(recovered.campaigns[0]->service().events_applied(), kEvents);

  // The recovered state matches the uninterrupted run bit-for-bit.
  RewardService reference(*mechanism);
  for (const Event& event : streams[0]) {
    reference.apply(event);
  }
  EXPECT_EQ(recovered.campaigns[0]->service().rewards(),
            reference.rewards());
  fs::remove_all(dir);
}

TEST(Storage, ReplicationWindowFromTheTailEqualsTheSegmentFiles) {
  // Two paths serve a replica: the in-memory tail of the newest
  // records, and a re-read of the segment files for anything older.
  // Both must ship the same bytes, respect max_records, and stop at
  // the committed watermark. The run is long enough that the tail has
  // dropped its oldest records.
  const MechanismPtr mechanism = make_default(MechanismKind::kGeometric);
  const fs::path dir = fresh_dir("itree_storage_repl_window");
  const std::size_t kCommitted = kReplTailRecords + 500;
  const std::vector<std::vector<Event>> streams = {
      make_stream(21, kCommitted / 2 + 10), make_stream(22, kCommitted / 2)};
  StorageConfig config;
  config.data_dir = dir.string();
  config.fsync = FsyncPolicy::kNever;
  config.segment_bytes = 64u << 10;
  Storage live(*mechanism, 2, config);
  for (std::size_t i = 0; i < kCommitted; ++i) {
    live.apply(static_cast<std::uint32_t>(i % 2), streams[i % 2][i / 2]);
    if (i % 64 == 63) {
      live.commit();
    }
  }
  live.commit();
  for (std::size_t i = kCommitted / 2; i < streams[0].size(); ++i) {
    live.apply(0, streams[0][i]);  // appended, never committed
  }
  ASSERT_EQ(live.committed_seq(), kCommitted);
  ASSERT_EQ(live.next_seq(), kCommitted + 11);

  // A second engine on the same directory sees only the segment files;
  // its tail starts empty, so every window comes from disk.
  Storage from_disk(*mechanism, 2, config);
  ASSERT_EQ(from_disk.committed_seq(), kCommitted);
  // The tail holds the newest kReplTailRecords appended records,
  // including the ten uncommitted ones.
  const std::uint64_t tail_front = kCommitted + 11 - kReplTailRecords;
  for (const std::uint64_t from :
       {std::uint64_t{1}, tail_front - 1, tail_front, tail_front + 1,
        kCommitted / 2, kCommitted - 3, kCommitted, kCommitted + 1,
        kCommitted + 5}) {
    for (const std::uint32_t max_records : {1u, 9u, 500u}) {
      const ReplicationWindow tail =
          live.read_replication_window(from, max_records);
      const ReplicationWindow disk =
          from_disk.read_replication_window(from, max_records);
      const std::uint64_t want =
          from > kCommitted
              ? 0
              : std::min<std::uint64_t>(max_records, kCommitted - from + 1);
      EXPECT_EQ(tail.count, want) << "from " << from << " max " << max_records;
      EXPECT_EQ(disk.count, want) << "from " << from << " max " << max_records;
      EXPECT_EQ(tail.records, disk.records)
          << "from " << from << " max " << max_records;
      EXPECT_EQ(tail.committed_seq, kCommitted);
      if (from >= tail_front) {
        EXPECT_EQ(tail.min_available_seq, tail_front);  // served from memory
      }
      const WalScan scan = scan_wal(tail.records);
      EXPECT_TRUE(scan.clean);
      ASSERT_EQ(scan.records.size(), want);
      for (std::size_t r = 0; r < scan.records.size(); ++r) {
        EXPECT_EQ(scan.records[r].seq, from + r);
      }
    }
  }
  fs::remove_all(dir);
}

TEST(Storage, PreV5ImageIsSkippedByName) {
  // Only ITSNAP05 is read. A newer file carrying an earlier generation's
  // magic is passed over with a warning naming that generation, never
  // half-served: recovery adopts the older v5 image and replays the WAL
  // tail bit-identically to the uninterrupted run. Without a v5 image
  // the compacted WAL no longer reaches seq 1, so recovery fails stop.
  const MechanismPtr mechanism = make_default(MechanismKind::kCdrmReciprocal);
  const std::vector<std::vector<Event>> streams = {make_stream(707, 90)};
  RewardService reference(*mechanism);
  for (const Event& event : streams[0]) {
    reference.apply(event);
  }
  for (const std::string legacy :
       {"ITSNAP01", "ITSNAP02", "ITSNAP03", "ITSNAP04"}) {
    const fs::path dir = fresh_dir("itree_storage_pre_v5");
    StorageConfig config;
    config.data_dir = dir.string();
    config.fsync = FsyncPolicy::kNever;
    run_workload(*mechanism, streams, config, 40);
    const auto snapshots = list_snapshots(dir.string());
    ASSERT_EQ(snapshots.size(), 1u) << legacy;
    const std::uint64_t k = snapshots[0].first;

    // A newer file: the v5 image's bytes under the legacy magic.
    std::string image = read_file(dir / snapshots[0].second);
    image.replace(0, legacy.size(), legacy);
    const std::string newer = snapshot_name(k + 10);
    write_file(dir / newer, image);

    const RecoveryResult recovered =
        recover_campaigns(*mechanism, 1, dir.string());
    ASSERT_EQ(recovered.report.warnings.size(), 1u) << legacy;
    const std::string& warning = recovered.report.warnings[0];
    EXPECT_NE(warning.find(newer), std::string::npos) << warning;
    EXPECT_NE(warning.find("unsupported snapshot generation " + legacy +
                           "; only ITSNAP05 is read"),
              std::string::npos)
        << warning;
    EXPECT_TRUE(recovered.report.used_snapshot);
    EXPECT_EQ(recovered.report.snapshot_seq, k);
    EXPECT_EQ(recovered.campaigns[0]->service().rewards(),
              reference.rewards())
        << legacy;

    fs::remove(dir / snapshots[0].second);
    try {
      (void)recover_campaigns(*mechanism, 1, dir.string());
      ADD_FAILURE() << legacy << ": recovered without the v5 image";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("WAL sequence gap"),
                std::string::npos)
          << error.what();
    }
    fs::remove_all(dir);
  }
}

TEST(Storage, LegacySkipSectionImageRecoversBitExactly) {
  // A data directory whose snapshot still carries the full skip section
  // (every image written while the arena kept that column) recovers
  // through the normal path for every mechanism family: the image is
  // adopted, the WAL tail replayed, and the tree and rewards equal the
  // uninterrupted run's bit for bit.
  const std::vector<std::vector<Event>> streams = {make_stream(808, 120)};
  for (const MechanismPtr& mechanism : all_mechanisms()) {
    const fs::path dir = fresh_dir("itree_storage_legacy_skip_recover");
    StorageConfig config;
    config.data_dir = dir.string();
    config.fsync = FsyncPolicy::kNever;
    run_workload(*mechanism, streams, config, 60);
    const auto snapshots = list_snapshots(dir.string());
    ASSERT_EQ(snapshots.size(), 1u);
    const fs::path path = dir / snapshots[0].second;
    const std::string image = read_file(path);
    // Every image written before the arena lost its skip column also
    // carried full prev-sibling and depth sections.
    const SnapshotData source = decode_snapshot(image);
    write_file(path,
               with_legacy_skip_sections(
                   with_legacy_prev_sibling_sections(
                       with_legacy_depth_sections(image, source), source),
                   source));

    const RecoveryResult recovered =
        recover_campaigns(*mechanism, 1, dir.string());
    EXPECT_TRUE(recovered.report.warnings.empty());
    EXPECT_TRUE(recovered.report.used_snapshot);
    EXPECT_EQ(recovered.report.snapshot_seq, snapshots[0].first);
    RewardService reference(*mechanism);
    for (const Event& event : streams[0]) {
      reference.apply(event);
    }
    const RewardService& service = recovered.campaigns[0]->service();
    expect_same_tree(service.tree(), reference.tree());
    EXPECT_EQ(service.rewards(), reference.rewards())
        << mechanism->display_name();
    fs::remove_all(dir);
  }
}

TEST(Storage, RestoreSnapshotMatchesTheOriginalServiceBitExactly) {
  for (const char* name : {"tdrm", "cdrm-1", "geometric", "l-pachira",
                           "norm-preliminary-tdrm"}) {
    const MechanismPtr mechanism =
        make_mechanism(name, parse_param_string(""));
    RewardService original(*mechanism);
    for (const Event& event : make_stream(777, 100)) {
      original.apply(event);
    }
    RecordingService restored(*mechanism);
    restored.adopt_snapshot(Tree(original.tree()), original.events_applied(),
                            original.export_aggregates());
    EXPECT_EQ(restored.service().events_applied(),
              original.events_applied());
    // The aggregates blob carries the original's FP accumulators, so
    // the compacting restore is bit-identical to the uninterrupted run.
    EXPECT_EQ(restored.service().rewards(), original.rewards());
    EXPECT_LT(restored.service().audit(), 1e-9);
    // Replaying the compacted log through a *fresh* service rebuilds
    // the accumulators from the one-join-per-participant history, so
    // its rewards match only to FP accumulation error, not bitwise.
    const RewardService replayed =
        EventLog::from_tree(restored.service().tree()).replay(*mechanism);
    const RewardVector& expected = original.rewards();
    ASSERT_EQ(replayed.rewards().size(), expected.size());
    for (std::size_t u = 0; u < expected.size(); ++u) {
      EXPECT_NEAR(replayed.rewards()[u], expected[u], 1e-9);
    }
  }
}

TEST(Storage, RecoveredCampaignExportReplaysToTheLiveTree) {
  // `itree recover --export` writes each recovered campaign as its
  // compacted log (EventLog::from_tree). Saved and loaded back, that
  // log replays to the identical tree, and to the rewards of the
  // uninterrupted live run within FP accumulation error. Not bitwise,
  // even for the batch mechanism: the replay re-sums C(T) and rebuilds
  // the incremental accumulators from one join per participant, not in
  // the original event order.
  for (const MechanismKind kind :
       {MechanismKind::kGeometric, MechanismKind::kTdrm,
        MechanismKind::kLPachira}) {
    const MechanismPtr mechanism = make_default(kind);
    const fs::path dir = fresh_dir("itree_storage_export");
    const std::size_t kEvents = 150;
    const std::vector<std::vector<Event>> streams = {
        make_stream(611, kEvents), make_stream(612, kEvents)};
    StorageConfig config;
    config.data_dir = dir.string();
    config.fsync = FsyncPolicy::kNever;
    // A mid-run snapshot, so recovery adopts an image and replays a
    // WAL tail of joins and contributes.
    run_workload(*mechanism, streams, config, kEvents / 2);

    const RecoveryResult recovered =
        recover_campaigns(*mechanism, streams.size(), dir.string());
    EXPECT_TRUE(recovered.report.used_snapshot);
    EXPECT_GT(recovered.report.tail_records, 0u);
    for (std::size_t c = 0; c < streams.size(); ++c) {
      const fs::path path = dir / ("campaign_" + std::to_string(c) + ".log");
      EventLog::from_tree(recovered.campaigns[c]->service().tree())
          .save(path.string());
      const RewardService replayed =
          EventLog::load(path.string()).replay(*mechanism);

      RewardService live(*mechanism);
      for (const Event& event : streams[c]) {
        live.apply(event);
      }
      expect_same_tree(replayed.tree(), live.tree());
      const RewardVector& got = replayed.rewards();
      const RewardVector& want = live.rewards();
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t u = 0; u < want.size(); ++u) {
        EXPECT_NEAR(got[u], want[u], 1e-9)
            << mechanism->display_name() << " campaign " << c;
      }
    }
    fs::remove_all(dir);
  }
}

}  // namespace
}  // namespace itree::storage
