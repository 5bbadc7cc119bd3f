// Robustness fuzzing: the text parsers must either parse or throw
// std::invalid_argument on arbitrary input — never crash, hang, or
// accept garbage silently.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>

#include "net/protocol.h"
#include "replication/replica.h"
#include "server/event_log.h"
#include "storage/crc32c.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "tree/io.h"
#include "util/rng.h"

namespace itree {
namespace {

std::string random_text(Rng& rng, std::size_t max_length,
                        const std::string& alphabet) {
  const std::size_t length = rng.index(max_length + 1);
  std::string text;
  text.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    text += alphabet[rng.index(alphabet.size())];
  }
  return text;
}

TEST(Fuzz, ParseTreeNeverCrashesOnStructuredNoise) {
  Rng rng(1001);
  const std::string alphabet = "()0123456789 .-+eE";
  int parsed = 0, rejected = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const std::string text = random_text(rng, 40, alphabet);
    try {
      const Tree tree = parse_tree(text);
      ++parsed;
      // Anything accepted must round-trip stably.
      EXPECT_EQ(to_string(parse_tree(to_string(tree))), to_string(tree));
    } catch (const std::invalid_argument&) {
      ++rejected;
    } catch (const std::out_of_range&) {
      ++rejected;  // std::stod range failure on absurd exponents
    }
  }
  // Sanity: the fuzz actually exercises both paths.
  EXPECT_GT(parsed, 10);
  EXPECT_GT(rejected, 10);
}

TEST(Fuzz, ParseTreeRejectsAdversarialCases) {
  for (const char* text :
       {"(", ")", "(()", "(1 2)", "((1))" /* number must follow '(' */,
        "(1))", "(--1)", "(1e)", "(.)", "(1 (2) 3)"}) {
    EXPECT_THROW(parse_tree(text), std::invalid_argument) << text;
  }
}

TEST(Fuzz, ParseTreeRejectsNegativeContributions) {
  EXPECT_THROW(parse_tree("(-1)"), std::invalid_argument);
  EXPECT_THROW(parse_tree("(1 (-0.5))"), std::invalid_argument);
}

TEST(Fuzz, EdgeListParserNeverCrashes) {
  Rng rng(1002);
  const std::string alphabet = "nodeparcntibu,0123456789.\n-";
  for (int trial = 0; trial < 2000; ++trial) {
    const std::string text =
        "node,parent,contribution\n" + random_text(rng, 60, alphabet);
    try {
      parse_edge_list(text);
    } catch (const std::invalid_argument&) {
    } catch (const std::out_of_range&) {
    }
  }
  SUCCEED();
}

TEST(Fuzz, EventLogParserNeverCrashes) {
  Rng rng(1003);
  // `@` event-ids and `#` comments included: the full line grammar.
  const std::string alphabet = "JC 0123456789.\n-e@#";
  for (int trial = 0; trial < 2000; ++trial) {
    const std::string text = random_text(rng, 60, alphabet);
    try {
      EventLog::parse(text);
    } catch (const std::invalid_argument&) {
    } catch (const std::out_of_range&) {
    }
  }
  SUCCEED();
}

TEST(Fuzz, FrameDecoderSurvivesRandomByteStreams) {
  // Arbitrary bytes in arbitrary chunk sizes: the decoder must never
  // crash, and anything it yields must either decode or throw
  // ProtocolError — the session layer turns the latter into clean
  // error frames.
  Rng rng(1004);
  for (int trial = 0; trial < 400; ++trial) {
    net::FrameDecoder decoder;
    std::string stream;
    const std::size_t length = 1 + rng.index(400);
    stream.reserve(length);
    for (std::size_t i = 0; i < length; ++i) {
      // Bias toward tiny length prefixes so some frames complete.
      stream += static_cast<char>(
          rng.bernoulli(0.5) ? rng.index(8) : rng.index(256));
    }
    std::size_t fed = 0;
    while (fed < stream.size() && !decoder.corrupt()) {
      const std::size_t chunk =
          std::min(stream.size() - fed, 1 + rng.index(16));
      decoder.feed(stream.data() + fed, chunk);
      fed += chunk;
      std::string_view payload;
      while (decoder.next(&payload)) {
        try {
          (void)net::decode_request(payload);
        } catch (const net::ProtocolError&) {
        }
        try {
          (void)net::decode_response(payload);
        } catch (const net::ProtocolError&) {
        }
      }
    }
  }
  SUCCEED();
}

TEST(Fuzz, TruncatedFramesNeverYieldPayloads) {
  // Every strict prefix of a valid frame must leave the decoder
  // waiting (not corrupt, no payload); completing the frame afterwards
  // must yield exactly the original payload.
  Rng rng(1005);
  for (int trial = 0; trial < 200; ++trial) {
    net::Request request;
    request.type = static_cast<net::MsgType>(1 + rng.index(7));
    request.campaign = static_cast<std::uint32_t>(rng.index(5));
    request.node = rng.index(100);
    request.amount = rng.uniform(-2.0, 5.0);
    const std::string payload = net::encode_request(request);
    const std::string framed = net::frame(payload);
    const std::size_t cut = rng.index(framed.size());  // < full length
    net::FrameDecoder decoder;
    decoder.feed(framed.data(), cut);
    std::string_view out;
    EXPECT_FALSE(decoder.next(&out));
    EXPECT_FALSE(decoder.corrupt());
    decoder.feed(framed.data() + cut, framed.size() - cut);
    ASSERT_TRUE(decoder.next(&out));
    EXPECT_EQ(out, payload);
    // Compare against the canonical decode: fields the message type
    // does not carry come back zeroed, by design.
    EXPECT_EQ(net::decode_request(out), net::decode_request(payload));
    EXPECT_EQ(decoder.buffered(), 0u);
  }
}

TEST(Fuzz, BatchedFramesRoundTripAndSurviveMutation) {
  // EVENT_BATCH frames carry a count field that must match the body
  // byte-for-byte (count x 17). Random valid batches must round-trip
  // exactly; any single-byte mutation of the count/kind region must
  // either still decode to a well-formed batch or throw ProtocolError,
  // never crash or mis-size a read.
  Rng rng(1010);
  for (int trial = 0; trial < 500; ++trial) {
    net::Request request;
    request.type = net::MsgType::kEventBatch;
    request.campaign = static_cast<std::uint32_t>(rng.index(8));
    const std::size_t count = rng.index(20);
    for (std::size_t i = 0; i < count; ++i) {
      net::BatchEvent event;
      event.kind = rng.bernoulli(0.5) ? net::BatchEvent::kJoin
                                      : net::BatchEvent::kContribute;
      event.node = rng.index(1000);
      event.amount = rng.uniform(0.0, 5.0);
      request.batch.push_back(event);
    }
    const std::string payload = net::encode_request(request);
    EXPECT_EQ(net::decode_request(payload), request);

    std::string mutated = payload;
    mutated[rng.index(mutated.size())] =
        static_cast<char>(rng.index(256));
    try {
      (void)net::decode_request(mutated);
    } catch (const net::ProtocolError&) {
    }
    // Truncations must always be flagged, not partially applied.
    if (payload.size() > 1) {
      try {
        (void)net::decode_request(
            std::string_view(payload).substr(0, rng.index(payload.size())));
      } catch (const net::ProtocolError&) {
      }
    }
  }
}

TEST(Fuzz, BatchedFrameStreamsNeverCrashTheDecoder) {
  // Streams that interleave valid EVENT_BATCH / kOkBatch frames with
  // garbage frames, fed in random fragments: the frame decoder and both
  // codecs must stay parse-or-throw across every boundary.
  Rng rng(1011);
  for (int trial = 0; trial < 200; ++trial) {
    std::string stream;
    const std::size_t frames = 1 + rng.index(6);
    for (std::size_t f = 0; f < frames; ++f) {
      if (rng.bernoulli(0.4)) {
        net::Request request;
        request.type = net::MsgType::kEventBatch;
        request.campaign = static_cast<std::uint32_t>(rng.index(4));
        const std::size_t count = rng.index(6);
        for (std::size_t i = 0; i < count; ++i) {
          request.batch.push_back(
              {static_cast<std::uint8_t>(rng.index(2)), rng.index(50),
               rng.uniform(0.0, 2.0)});
        }
        stream += net::frame(net::encode_request(request));
      } else if (rng.bernoulli(0.5)) {
        net::Response response;
        response.status = net::Status::kOkBatch;
        response.batch_count = static_cast<std::uint32_t>(rng.index(6));
        for (std::uint32_t i = 0; i < response.batch_count; ++i) {
          if (rng.bernoulli(0.8)) {
            response.batch_results.push_back(rng.index(100));
          }
        }
        if (response.batch_results.size() < response.batch_count) {
          response.error = net::ErrorCode::kRejected;
          response.message = "fuzz";
        }
        stream += net::frame(net::encode_response(response));
      } else {
        std::string junk;
        const std::size_t length = 1 + rng.index(30);
        for (std::size_t i = 0; i < length; ++i) {
          junk += static_cast<char>(rng.index(256));
        }
        stream += net::frame(junk);
      }
    }
    net::FrameDecoder decoder;
    std::size_t fed = 0;
    while (fed < stream.size() && !decoder.corrupt()) {
      const std::size_t chunk =
          std::min(stream.size() - fed, 1 + rng.index(24));
      decoder.feed(stream.data() + fed, chunk);
      fed += chunk;
      std::string_view payload;
      while (decoder.next(&payload)) {
        try {
          (void)net::decode_request(payload);
        } catch (const net::ProtocolError&) {
        }
        try {
          (void)net::decode_response(payload);
        } catch (const net::ProtocolError&) {
        }
      }
    }
  }
  SUCCEED();
}

TEST(Fuzz, RandomPayloadsNeverCrashTheCodecs) {
  Rng rng(1006);
  for (int trial = 0; trial < 3000; ++trial) {
    std::string payload;
    const std::size_t length = rng.index(40);
    for (std::size_t i = 0; i < length; ++i) {
      payload += static_cast<char>(rng.index(256));
    }
    try {
      (void)net::decode_request(payload);
    } catch (const net::ProtocolError&) {
    }
    try {
      (void)net::decode_response(payload);
    } catch (const net::ProtocolError&) {
    }
  }
  SUCCEED();
}

TEST(Fuzz, WalScannerNeverCrashesOnRandomBytes) {
  // The WAL scanner's fuzz contract is stronger than parse-or-throw:
  // it never throws at all on in-memory bytes, it just stops at the
  // first record that fails verification.
  Rng rng(1007);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string bytes;
    const std::size_t length = rng.index(300);
    bytes.reserve(length);
    for (std::size_t i = 0; i < length; ++i) {
      // Bias toward tiny little-endian length prefixes so some records
      // pass the length check and exercise the CRC path.
      bytes += static_cast<char>(
          rng.bernoulli(0.5) ? rng.index(8) : rng.index(256));
    }
    const storage::WalScan scan = storage::scan_wal(bytes);
    EXPECT_LE(scan.valid_bytes, bytes.size());
    EXPECT_EQ(scan.clean, scan.valid_bytes == bytes.size());
  }
}

TEST(Fuzz, WalScannerOnMutatedLogsKeepsOnlyTheVerifiedPrefix) {
  // Build a valid multi-record log, then flip bytes / truncate at
  // random. Every record that lies entirely before the first mutated
  // byte is untouched CRC-verified data and must come back intact;
  // nothing returned may differ from the original prefix.
  Rng rng(1008);
  std::string valid;
  std::vector<std::string> encoded;
  std::vector<storage::WalRecord> original;
  for (std::uint64_t seq = 1; seq <= 30; ++seq) {
    storage::WalRecord record;
    record.seq = seq;
    record.campaign = static_cast<std::uint32_t>(rng.index(4));
    if (rng.bernoulli(0.6)) {
      record.event = JoinEvent{static_cast<NodeId>(rng.index(20)),
                               rng.uniform(0.0, 3.0)};
    } else {
      record.event = ContributeEvent{static_cast<NodeId>(rng.index(20)),
                                     rng.uniform(0.0, 2.0)};
    }
    original.push_back(record);
    encoded.push_back(storage::encode_wal_record(record));
    valid += encoded.back();
  }
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = valid.substr(0, 1 + rng.index(valid.size()));
    std::size_t first_flip = mutated.size();
    const std::size_t flips = 1 + rng.index(3);
    for (std::size_t f = 0; f < flips && !mutated.empty(); ++f) {
      const std::size_t at = rng.index(mutated.size());
      mutated[at] = static_cast<char>(rng.index(256));
      first_flip = std::min(first_flip, at);
    }
    const storage::WalScan scan = storage::scan_wal(mutated);
    // Count the records fully contained in the untouched prefix.
    std::size_t safe = 0, offset = 0;
    while (safe < encoded.size() &&
           offset + encoded[safe].size() <= first_flip) {
      offset += encoded[safe].size();
      ++safe;
    }
    ASSERT_GE(scan.records.size(), safe);
    for (std::size_t i = 0; i < safe; ++i) {
      EXPECT_EQ(scan.records[i], original[i]);
    }
  }
}

TEST(Fuzz, SnapshotV5DecoderNeverCrashesOnMutations) {
  // A mutation in the zero padding between sections is invisible (the
  // padding is never read), so a mutated image must either fail a
  // CRC/geometry check (std::invalid_argument) or decode to data
  // identical to the pristine image — and because the decoder adopts
  // the persisted link columns instead of rebuilding them, a surviving
  // decode must also reproduce every link and depth and pass the full
  // cross-link proof. Never a crash, never a giant allocation, never a
  // silently divergent arena.
  Tree tree;
  const NodeId a = tree.add_node(kRoot, 2.0);
  const NodeId b = tree.add_node(a, 1.0);
  tree.add_node(a, 0.5);
  tree.add_node(b, 0.25);
  storage::SnapshotData data;
  data.last_seq = 12;
  data.mechanism = "fuzz";
  data.campaigns.push_back({3, tree, 1, {0.5, 1.5, 2.5}});
  const std::string valid = storage::encode_snapshot_v5(data);
  const storage::SnapshotData want = storage::decode_snapshot(valid);
  const Tree& want_tree = want.campaigns[0].tree;

  Rng rng(2029);
  for (int trial = 0; trial < 1500; ++trial) {
    std::string bytes;
    if (rng.bernoulli(0.7)) {
      bytes = valid.substr(0, rng.index(valid.size() + 1));
      const std::size_t flips = rng.index(4);
      for (std::size_t f = 0; f < flips && !bytes.empty(); ++f) {
        bytes[rng.index(bytes.size())] =
            static_cast<char>(rng.index(256));
      }
    } else {
      const std::size_t length = rng.index(200);
      bytes = std::string(storage::kSnapshotMagicV5);
      for (std::size_t i = 0; i < length; ++i) {
        bytes += static_cast<char>(rng.index(256));
      }
    }
    try {
      const storage::SnapshotData decoded = storage::decode_snapshot(bytes);
      // Survived the CRCs: must be byte-for-byte the original state,
      // arena links included.
      ASSERT_EQ(decoded.last_seq, want.last_seq);
      ASSERT_EQ(decoded.mechanism, want.mechanism);
      ASSERT_EQ(decoded.campaigns.size(), want.campaigns.size());
      ASSERT_EQ(decoded.campaigns[0].aggregates,
                want.campaigns[0].aggregates);
      const Tree& got_tree = decoded.campaigns[0].tree;
      ASSERT_EQ(got_tree.node_count(), want_tree.node_count());
      ASSERT_EQ(got_tree.total_contribution(),
                want_tree.total_contribution());
      for (NodeId u = 0; u < want_tree.node_count(); ++u) {
        ASSERT_EQ(got_tree.contribution(u), want_tree.contribution(u));
        ASSERT_EQ(got_tree.depth(u), want_tree.depth(u));
        ASSERT_EQ(got_tree.children(u).to_vector(),
                  want_tree.children(u).to_vector());
      }
      got_tree.validate_links();
    } catch (const std::invalid_argument&) {
    }
    // The validate-only scan obeys the same parse-or-throw contract.
    try {
      (void)storage::validate_snapshot_image(bytes);
    } catch (const std::invalid_argument&) {
    }
  }

  // A header advertising a huge node count must fail geometry
  // validation (sections would overrun the file), not allocate. The
  // header CRC is recomputed so the geometry check, not the checksum,
  // is what rejects it.
  std::string huge = valid;
  // node_count sits after last_seq(8) + file_size(8) + page(4) +
  // campaigns(4) + name len(4) + name(4) + events(8) in the payload,
  // which starts at byte 16 of the image.
  const std::size_t node_count_at = 16 + 8 + 8 + 4 + 4 + 4 + 4 + 8;
  for (std::size_t i = 0; i < 8; ++i) {
    huge[node_count_at + i] = '\xfe';
  }
  std::uint32_t header_len = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    header_len |= static_cast<std::uint32_t>(
                      static_cast<unsigned char>(huge[8 + i]))
                  << (8 * i);
  }
  const std::uint32_t crc = storage::crc32c(
      std::string_view(huge).substr(16, header_len));
  for (std::size_t i = 0; i < 4; ++i) {
    huge[12 + i] = static_cast<char>((crc >> (8 * i)) & 0xff);
  }
  EXPECT_THROW(storage::decode_snapshot(huge), std::invalid_argument);
  EXPECT_THROW(storage::validate_snapshot_image(huge),
               std::invalid_argument);
}

TEST(Fuzz, SnapshotReadersAgreeOnMutatedImages) {
  // The buffered decode and the mmap adoption are two readers of one
  // format: on any mutated image both reject it, or both return the same
  // state. The validate-only scan builds no tree, so it accepts at least
  // everything they accept, reporting the same watermark.
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "itree_fuzz_readers";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path path = dir / "image.snap";

  Tree tree;
  const NodeId a = tree.add_node(kRoot, 2.0);
  tree.add_node(a, 1.0);
  tree.add_node(kRoot, 0.5);
  storage::SnapshotData data;
  data.last_seq = 31;
  data.mechanism = "fuzz";
  data.campaigns.push_back({5, tree, 1, {0.25, 4.0}});
  data.campaigns.push_back({0, Tree(), 0, {}});
  const std::string valid = storage::encode_snapshot_v5(data);

  Rng rng(3301);
  std::size_t accepted = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::string bytes = valid;
    if (rng.bernoulli(0.2)) {
      bytes.resize(rng.index(valid.size() + 1));
    }
    const std::size_t flips = 1 + rng.index(3);
    for (std::size_t f = 0; f < flips && !bytes.empty(); ++f) {
      bytes[rng.index(bytes.size())] = static_cast<char>(rng.index(256));
    }
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }

    std::optional<storage::SnapshotData> decoded;
    std::optional<storage::SnapshotData> mapped;
    std::optional<std::uint64_t> validated;
    try {
      decoded = storage::decode_snapshot(bytes);
    } catch (const std::invalid_argument&) {
    }
    try {
      mapped = storage::MappedSnapshot(path.string()).materialize();
    } catch (const std::invalid_argument&) {
    }
    try {
      validated = storage::validate_snapshot_image(bytes);
    } catch (const std::invalid_argument&) {
    }
    ASSERT_EQ(decoded.has_value(), mapped.has_value()) << "trial " << trial;
    if (!decoded.has_value()) {
      continue;
    }
    ++accepted;
    ASSERT_TRUE(validated.has_value()) << "trial " << trial;
    EXPECT_EQ(*validated, decoded->last_seq);
    // Survivors only mutated page padding: both readers return exactly
    // the encoded state.
    for (const storage::SnapshotData* got : {&*decoded, &*mapped}) {
      ASSERT_EQ(got->last_seq, data.last_seq);
      ASSERT_EQ(got->mechanism, data.mechanism);
      ASSERT_EQ(got->campaigns.size(), data.campaigns.size());
      for (std::size_t c = 0; c < data.campaigns.size(); ++c) {
        ASSERT_EQ(got->campaigns[c].aggregates, data.campaigns[c].aggregates);
      }
      EXPECT_EQ(storage::encode_snapshot_v5(*got), valid);
    }
  }
  // Most of the image is padding, so some mutants must survive.
  EXPECT_GT(accepted, 0u);
  fs::remove_all(dir);
}

TEST(Fuzz, ReplicationFramesSurviveMutationAndTruncation) {
  // The replication frames ride the same codecs as everything else:
  // every REPL_* request and OK_REPL_* response, mutated or truncated
  // at any point, must parse or throw ProtocolError — never crash or
  // return without consuming the whole payload.
  Rng rng(1010);
  std::vector<std::string> seeds;

  net::Request hello;
  hello.type = net::MsgType::kReplHello;
  hello.seq = 123456789;
  seeds.push_back(net::encode_request(hello));
  net::Request snapshot;
  snapshot.type = net::MsgType::kReplSnapshot;
  seeds.push_back(net::encode_request(snapshot));
  net::Request segment;
  segment.type = net::MsgType::kReplSegment;
  segment.seq = 42;
  segment.max_records = 8192;
  seeds.push_back(net::encode_request(segment));
  net::Request heartbeat;
  heartbeat.type = net::MsgType::kReplHeartbeat;
  seeds.push_back(net::encode_request(heartbeat));

  net::Response ok_hello;
  ok_hello.status = net::Status::kOkReplHello;
  ok_hello.seq = 99;
  ok_hello.repl = {net::kReplProtocolVersion, 4, 7, "TDRM", ""};
  seeds.push_back(net::encode_response(ok_hello));
  net::Response ok_snapshot;
  ok_snapshot.status = net::Status::kOkReplSnapshot;
  ok_snapshot.seq = 99;
  ok_snapshot.repl.payload = std::string(64, '\x5a');
  seeds.push_back(net::encode_response(ok_snapshot));
  net::Response ok_segment;
  ok_segment.status = net::Status::kOkReplSegment;
  ok_segment.seq = 99;
  ok_segment.repl.min_available_seq = 3;
  ok_segment.repl.payload =
      storage::encode_wal_record({7, 1, JoinEvent{kRoot, 1.5}});
  seeds.push_back(net::encode_response(ok_segment));
  net::Response ok_heartbeat;
  ok_heartbeat.status = net::Status::kOkReplHeartbeat;
  ok_heartbeat.seq = 99;
  seeds.push_back(net::encode_response(ok_heartbeat));

  for (const std::string& seed : seeds) {
    // Round trip sanity: the unmutated encodings parse.
    try {
      (void)net::decode_request(seed);
    } catch (const net::ProtocolError&) {
      (void)net::decode_response(seed);  // must be the response seed then
    }
    // Every truncation point.
    for (std::size_t cut = 0; cut < seed.size(); ++cut) {
      const std::string torn = seed.substr(0, cut);
      try {
        (void)net::decode_request(torn);
      } catch (const net::ProtocolError&) {
      }
      try {
        (void)net::decode_response(torn);
      } catch (const net::ProtocolError&) {
      }
    }
    // Random byte flips, sometimes several.
    for (int trial = 0; trial < 600; ++trial) {
      std::string mutated = seed;
      const std::size_t flips = 1 + rng.index(4);
      for (std::size_t f = 0; f < flips; ++f) {
        mutated[rng.index(mutated.size())] =
            static_cast<char>(rng.index(256));
      }
      try {
        (void)net::decode_request(mutated);
      } catch (const net::ProtocolError&) {
      }
      try {
        (void)net::decode_response(mutated);
      } catch (const net::ProtocolError&) {
      }
    }
  }
  SUCCEED();
}

TEST(Fuzz, ShardMapAndRoutedFramesSurviveMutationAndTruncation) {
  // The router's frames ride the same codecs: the bare SHARD_MAP
  // request, OK_SHARD_MAP responses (including many-shard and
  // empty-endpoint shapes), kShardDown error frames, and the
  // campaign-bearing requests the router peeks at before forwarding.
  // Mutated or truncated anywhere, each must parse or throw
  // ProtocolError — never crash, hang, or over-allocate (the per-entry
  // length guard caps the shard-count field against the remaining
  // payload).
  Rng rng(1012);
  std::vector<std::string> seeds;

  net::Request map_request;
  map_request.type = net::MsgType::kShardMap;
  seeds.push_back(net::encode_request(map_request));

  net::Response map_response;
  map_response.status = net::Status::kOkShardMap;
  map_response.shard_map.campaigns = 64;
  map_response.shard_map.shards = {
      {"127.0.0.1:7431", 1, 0},
      {"10.20.30.40:65535", 0, 12345},
      {"", 1, 0},  // degenerate endpoint must still round-trip
  };
  seeds.push_back(net::encode_response(map_response));

  net::Response one_shard;
  one_shard.status = net::Status::kOkShardMap;
  one_shard.shard_map.campaigns = 1;
  one_shard.shard_map.shards = {{"router-worker-0.internal:7431", 1, 7}};
  seeds.push_back(net::encode_response(one_shard));

  seeds.push_back(net::encode_response(net::error_response(
      net::ErrorCode::kShardDown,
      "shard 3 (127.0.0.1:7434) is down: connect: refused")));

  // The frames the router peeks into (type byte + campaign id) before
  // forwarding byte-for-byte: the peek must agree with the codec on
  // where the campaign lives, and mutants must stay parse-or-throw.
  net::Request routed;
  routed.type = net::MsgType::kRewardAt;
  routed.campaign = 19;
  routed.node = 77;
  routed.seq = 123456;
  seeds.push_back(net::encode_request(routed));
  net::Request batch;
  batch.type = net::MsgType::kEventBatch;
  batch.campaign = 6;
  batch.batch = {{net::BatchEvent::kJoin, 0, 1.25},
                 {net::BatchEvent::kContribute, 1, 0.5}};
  seeds.push_back(net::encode_request(batch));

  for (const std::string& seed : seeds) {
    // Round trip sanity: the unmutated encodings parse, and for the
    // campaign-bearing request seeds the router's routing peek (a raw
    // LE32 at payload offset 1) matches the decoded campaign.
    try {
      const net::Request request = net::decode_request(seed);
      if (request.type == net::MsgType::kRewardAt ||
          request.type == net::MsgType::kEventBatch) {
        ASSERT_GE(seed.size(), 5u);
        std::uint32_t peeked = 0;
        for (int i = 0; i < 4; ++i) {
          peeked |= static_cast<std::uint32_t>(
                        static_cast<std::uint8_t>(seed[1 + i]))
                    << (8 * i);
        }
        EXPECT_EQ(peeked, request.campaign);
      }
    } catch (const net::ProtocolError&) {
      (void)net::decode_response(seed);  // must be a response seed then
    }
    // Every truncation point.
    for (std::size_t cut = 0; cut < seed.size(); ++cut) {
      const std::string torn = seed.substr(0, cut);
      try {
        (void)net::decode_request(torn);
      } catch (const net::ProtocolError&) {
      }
      try {
        (void)net::decode_response(torn);
      } catch (const net::ProtocolError&) {
      }
    }
    // Random byte flips, sometimes several. Flipping the shard-count
    // or endpoint-length fields upward is the interesting case: the
    // decoder must bound both against the remaining payload.
    for (int trial = 0; trial < 600; ++trial) {
      std::string mutated = seed;
      const std::size_t flips = 1 + rng.index(4);
      for (std::size_t f = 0; f < flips; ++f) {
        mutated[rng.index(mutated.size())] =
            static_cast<char>(rng.index(256));
      }
      try {
        (void)net::decode_request(mutated);
      } catch (const net::ProtocolError&) {
      }
      try {
        (void)net::decode_response(mutated);
      } catch (const net::ProtocolError&) {
      }
    }
  }
  SUCCEED();
}

TEST(Fuzz, ShippedRecordDecoderAcceptsOnlyCleanContiguousPrefixes) {
  // decode_shipped_records is the replica's trust boundary for bytes
  // shipped by REPL_SEGMENT. Its contract is stronger than the raw
  // scanner's: never throw, and anything returned must be an exact,
  // gap-free prefix of the true record stream starting at the expected
  // sequence — a torn or bit-flipped batch yields a shorter prefix the
  // replica re-requests, never divergence.
  Rng rng(1011);
  std::vector<storage::WalRecord> original;
  std::vector<std::string> encoded;
  std::string blob;
  for (std::uint64_t seq = 11; seq <= 40; ++seq) {
    storage::WalRecord record;
    record.seq = seq;
    record.campaign = static_cast<std::uint32_t>(rng.index(4));
    if (rng.bernoulli(0.6)) {
      record.event = JoinEvent{static_cast<NodeId>(rng.index(20)),
                               rng.uniform(0.0, 3.0)};
    } else {
      record.event = ContributeEvent{static_cast<NodeId>(1 + rng.index(20)),
                                     rng.uniform(0.0, 2.0)};
    }
    original.push_back(record);
    encoded.push_back(storage::encode_wal_record(record));
    blob += encoded.back();
  }

  const auto expect_clean_prefix =
      [&](const replication::ShippedBatch& batch) {
        ASSERT_LE(batch.records.size(), original.size());
        for (std::size_t i = 0; i < batch.records.size(); ++i) {
          ASSERT_EQ(batch.records[i], original[i]) << "record " << i;
        }
      };

  // The full blob round-trips.
  const replication::ShippedBatch whole =
      replication::decode_shipped_records(blob, 11);
  EXPECT_TRUE(whole.clean);
  ASSERT_EQ(whole.records.size(), original.size());
  expect_clean_prefix(whole);

  // Every truncation point: only whole-record prefixes, clean iff the
  // cut landed exactly on a boundary.
  std::vector<std::size_t> boundaries = {0};
  for (const std::string& record : encoded) {
    boundaries.push_back(boundaries.back() + record.size());
  }
  for (std::size_t cut = 0; cut <= blob.size(); ++cut) {
    const replication::ShippedBatch batch =
        replication::decode_shipped_records(blob.substr(0, cut), 11);
    expect_clean_prefix(batch);
    const bool on_boundary =
        std::find(boundaries.begin(), boundaries.end(), cut) !=
        boundaries.end();
    EXPECT_EQ(batch.clean, on_boundary) << "cut " << cut;
    if (!on_boundary) {
      EXPECT_FALSE(batch.reason.empty());
    }
  }

  // Bit flips: whatever survives is an untouched prefix.
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = blob;
    const std::size_t flips = 1 + rng.index(3);
    for (std::size_t f = 0; f < flips; ++f) {
      const std::size_t at = rng.index(mutated.size());
      mutated[at] = static_cast<char>(mutated[at] ^ (1u << rng.index(8)));
    }
    const replication::ShippedBatch batch =
        replication::decode_shipped_records(mutated, 11);
    expect_clean_prefix(batch);
  }

  // A sequence gap (dropped middle record) stops the batch at the gap
  // even though every record is individually CRC-clean.
  std::string gapped;
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    if (i != 5) {
      gapped += encoded[i];
    }
  }
  const replication::ShippedBatch gap =
      replication::decode_shipped_records(gapped, 11);
  EXPECT_FALSE(gap.clean);
  EXPECT_EQ(gap.records.size(), 5u);
  expect_clean_prefix(gap);
  EXPECT_NE(gap.reason.find("gap"), std::string::npos);

  // A batch whose first record is not the expected sequence is wholly
  // rejected (the primary answered the wrong window).
  const replication::ShippedBatch skewed =
      replication::decode_shipped_records(blob, 12);
  EXPECT_FALSE(skewed.clean);
  EXPECT_TRUE(skewed.records.empty());

  // Pure noise never crashes.
  for (int trial = 0; trial < 2000; ++trial) {
    std::string noise;
    const std::size_t length = rng.index(200);
    for (std::size_t i = 0; i < length; ++i) {
      noise += static_cast<char>(
          rng.bernoulli(0.5) ? rng.index(8) : rng.index(256));
    }
    const replication::ShippedBatch batch =
        replication::decode_shipped_records(noise, 1);
    EXPECT_TRUE(batch.records.empty() || batch.records.front().seq == 1);
  }
}

TEST(Fuzz, DeeplyNestedTreesParseWithinStackLimits) {
  // The s-expression parser recurses; 20k levels must still be fine.
  std::string text;
  for (int i = 0; i < 20000; ++i) {
    text += "(1 ";
  }
  text += "(1)";
  for (int i = 0; i < 20000; ++i) {
    text += ")";
  }
  const Tree tree = parse_tree(text);
  EXPECT_EQ(tree.participant_count(), 20001u);
}

}  // namespace
}  // namespace itree
