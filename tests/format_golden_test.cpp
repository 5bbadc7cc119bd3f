// Byte goldens of the three persistent/wire formats: one frame of every
// request and response type, the WAL segment of a fixed event stream,
// and the ITSNAP05 image of a fixed three-campaign deployment. Each is
// pinned as (length, CRC32C), so any change to a codec that moves a
// single byte fails here — the formats are read by other processes
// (clients, replicas) and by later builds (recovery), so their bytes
// are a contract, not an implementation detail.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/factory.h"
#include "net/protocol.h"
#include "server/reward_service.h"
#include "storage/crc32c.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "util/le_codec.h"

namespace itree {
namespace {

namespace fs = std::filesystem;

struct Golden {
  std::size_t length;
  std::uint32_t crc;
};

void expect_golden(const std::string& bytes, Golden golden,
                   const std::string& what) {
  EXPECT_EQ(bytes.size(), golden.length) << what;
  EXPECT_EQ(storage::crc32c(bytes), golden.crc)
      << what << " (length " << bytes.size() << ")";
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// --- wire frames ----------------------------------------------------

net::Request request_of(net::MsgType type) {
  net::Request request;
  request.type = type;
  request.campaign = 0x01020304u;
  request.node = 0x1122334455667788ull;
  request.amount = 2.75;
  request.seq = 0x0a0b0c0d0e0f1011ull;
  request.max_records = 4096;
  return request;
}

std::vector<std::pair<std::string, std::string>> request_frames() {
  using net::MsgType;
  std::vector<std::pair<std::string, net::Request>> requests = {
      {"JOIN", request_of(MsgType::kJoin)},
      {"CONTRIBUTE", request_of(MsgType::kContribute)},
      {"REWARD", request_of(MsgType::kReward)},
      {"REWARDS_BATCH", request_of(MsgType::kRewardsBatch)},
      {"AUDIT", request_of(MsgType::kAudit)},
      {"STATS", request_of(MsgType::kStats)},
      {"SHUTDOWN", request_of(MsgType::kShutdown)},
      {"EVENT_BATCH", request_of(MsgType::kEventBatch)},
      {"SERVER_STATS", request_of(MsgType::kServerStats)},
      {"REWARD_AT", request_of(MsgType::kRewardAt)},
      {"SHARD_MAP", request_of(MsgType::kShardMap)},
      {"REPL_HELLO", request_of(MsgType::kReplHello)},
      {"REPL_SNAPSHOT", request_of(MsgType::kReplSnapshot)},
      {"REPL_SEGMENT", request_of(MsgType::kReplSegment)},
      {"REPL_HEARTBEAT", request_of(MsgType::kReplHeartbeat)},
  };
  requests[7].second.batch = {
      {net::BatchEvent::kJoin, 0, 1.5},
      {net::BatchEvent::kContribute, 7, -0.0},
      {net::BatchEvent::kJoin, 0xffffffffull, 1e-310}};
  std::vector<std::pair<std::string, std::string>> frames;
  for (const auto& [name, request] : requests) {
    frames.emplace_back(name, net::frame(net::encode_request(request)));
  }
  return frames;
}

std::vector<std::pair<std::string, net::Response>> responses() {
  using net::Response;
  using net::Status;
  std::vector<std::pair<std::string, Response>> out;
  out.emplace_back("OK", Response{});
  Response ok_seq;
  ok_seq.seq = 0x0102030405060708ull;
  out.emplace_back("OK+seq", ok_seq);
  Response id;
  id.status = Status::kOkId;
  id.id = 0xdeadbeefull;
  id.seq = 99;
  out.emplace_back("OK_ID", id);
  Response value;
  value.status = Status::kOkValue;
  value.value = 1.0 / 3.0;
  out.emplace_back("OK_VALUE", value);
  Response vector;
  vector.status = Status::kOkVector;
  vector.rewards = {0.0,
                    -0.0,
                    std::bit_cast<double>(0x7ff80000deadbeefull),  // NaN
                    std::numeric_limits<double>::denorm_min() * 12345,
                    1e300,
                    -2.5};
  out.emplace_back("OK_VECTOR", vector);
  Response stats;
  stats.status = Status::kOkStats;
  stats.stats = {123456, 789, 4.25, true};
  out.emplace_back("OK_STATS", stats);
  Response batch;
  batch.status = Status::kOkBatch;
  batch.batch_count = 3;
  batch.batch_results = {11, 0, 12};
  batch.seq = 77;
  out.emplace_back("OK_BATCH", batch);
  Response partial = batch;
  partial.batch_count = 5;
  partial.error = net::ErrorCode::kRejected;
  partial.message = "negative amount";
  out.emplace_back("OK_BATCH partial", partial);
  Response server_stats;
  server_stats.status = Status::kOkServerStats;
  net::ServerStatsBody& s = server_stats.server_stats;
  s.reactors = 1;
  s.sessions_accepted = 2;
  s.sessions_closed = 3;
  s.requests_served = 4;
  s.protocol_errors = 5;
  s.sessions_timed_out = 6;
  s.backpressure_stalls = 7;
  s.events_batched = 8;
  s.batch_flushes = 9;
  s.requests_forwarded = 10;
  s.event_batches = 11;
  s.role = 12;
  s.committed_seq = 13;
  s.applied_seq = 14;
  s.primary_seq = 15;
  s.repl_records_shipped = 16;
  s.token_waits = 17;
  s.token_bounces = 18;
  s.writes_redirected = 19;
  s.stats_seq = 0x8000000000000014ull;
  out.emplace_back("OK_SERVER_STATS", server_stats);
  Response shard_map;
  shard_map.status = Status::kOkShardMap;
  shard_map.shard_map.campaigns = 8;
  shard_map.shard_map.shards = {{"127.0.0.1:7001", 1, 0},
                                {"127.0.0.1:7002", 0, 3}};
  out.emplace_back("OK_SHARD_MAP", shard_map);
  Response hello;
  hello.status = Status::kOkReplHello;
  hello.repl.version = net::kReplProtocolVersion;
  hello.repl.campaigns = 4;
  hello.seq = 1000;
  hello.repl.min_available_seq = 17;
  hello.repl.mechanism = "Geometric(a=0.5,b=0.2)";
  out.emplace_back("OK_REPL_HELLO", hello);
  Response snapshot;
  snapshot.status = Status::kOkReplSnapshot;
  snapshot.seq = 1000;
  snapshot.repl.min_available_seq = 1;
  snapshot.repl.payload = std::string("ITSNAP05\0\1\2", 11);
  out.emplace_back("OK_REPL_SNAPSHOT", snapshot);
  Response segment = snapshot;
  segment.status = Status::kOkReplSegment;
  segment.repl.payload = "raw wal records";
  out.emplace_back("OK_REPL_SEGMENT", segment);
  Response heartbeat;
  heartbeat.status = Status::kOkReplHeartbeat;
  heartbeat.seq = 31337;
  out.emplace_back("OK_REPL_HEARTBEAT", heartbeat);
  out.emplace_back("ERROR", net::error_response(net::ErrorCode::kShardDown,
                                                "shard 1 down"));
  return out;
}

TEST(FormatGolden, EveryRequestFrame) {
  const std::vector<Golden> goldens = {
      {25, 0x3a656ff3u}, {25, 0x2d7be9c4u}, {17, 0x6748b593u},
      {9, 0x35738005u},  {9, 0x0d62efa9u},  {9, 0x45515f5du},
      {5, 0xa9a97d72u},  {64, 0xdd80287du}, {5, 0x05d1c255u},
      {25, 0xbb7f6bb7u}, {5, 0xe4eab2a2u},  {17, 0xef0d9fc7u},
      {5, 0x9f565df5u},  {17, 0xfaf59c24u}, {5, 0x7e6d2d02u},
  };
  const auto frames = request_frames();
  ASSERT_EQ(frames.size(), goldens.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    expect_golden(frames[i].second, goldens[i], frames[i].first);
  }
}

TEST(FormatGolden, EveryResponseFrame) {
  const std::vector<Golden> goldens = {
      {5, 0xff9522e1u},   {13, 0x034d9d25u}, {21, 0x2314acd3u},
      {13, 0x0a8bcce5u},  {61, 0xe192b7deu}, {30, 0x90a0d540u},
      {45, 0xeadf6235u},  {65, 0x543f53d3u}, {165, 0x11e42d1fu},
      {67, 0xef20a7ccu},  {55, 0x807eb796u}, {36, 0x93f097e0u},
      {40, 0x7949e1ddu},  {13, 0x9ca3bfb1u}, {22, 0x3edebd2cu},
  };
  const auto cases = responses();
  ASSERT_EQ(cases.size(), goldens.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const std::string framed =
        net::frame(net::encode_response(cases[i].second));
    expect_golden(framed, goldens[i], cases[i].first);
    // The serving hot path's direct encoder writes the same bytes.
    std::string direct = "prefix";
    net::append_framed_response(direct, cases[i].second);
    EXPECT_EQ(direct, "prefix" + framed) << cases[i].first;
  }
}

TEST(FormatGolden, OkVectorFramedOnceKeepsItsGolden) {
  // REWARDS frames its vector once, header first and rewards appended
  // block by block; the bytes are the OK_VECTOR golden above.
  net::Response vector;
  for (const auto& [name, response] : responses()) {
    if (name == "OK_VECTOR") {
      vector = response;
    }
  }
  ASSERT_EQ(vector.status, net::Status::kOkVector);
  for (const std::size_t block : {std::size_t{1}, std::size_t{4}}) {
    net::Response framed;
    framed.status = net::Status::kOkVector;
    net::append_vector_frame_header(framed.framed, vector.rewards.size());
    for (std::size_t first = 0; first < vector.rewards.size();
         first += block) {
      le::put_array(framed.framed,
                    std::span<const double>(vector.rewards)
                        .subspan(first, std::min(block, vector.rewards.size() -
                                                            first)));
    }
    expect_golden(framed.framed, {61, 0xe192b7deu}, "OK_VECTOR framed once");
    std::string direct;
    net::append_framed_response(direct, framed);
    expect_golden(direct, {61, 0xe192b7deu}, "OK_VECTOR appended");
  }
}

// --- WAL segment ----------------------------------------------------

TEST(FormatGolden, WalSegmentOfAFixedStream) {
  const fs::path dir = fs::temp_directory_path() / "itree_golden_wal";
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    storage::WalWriter writer(dir.string(), 1, storage::FsyncPolicy::kNever,
                              0.0, 1u << 20);
    NodeId participants = 0;
    for (std::uint32_t i = 0; i < 50; ++i) {
      const std::uint32_t campaign = i % 3;
      const double amount = static_cast<double>(i) * 0.37 - 1.0 / 7.0;
      if (i % 4 != 3) {
        const NodeId referrer =
            i % 5 == 0 ? kRoot : (i * 7) % (participants + 1);
        writer.append(campaign, JoinEvent{referrer, amount});
        ++participants;
      } else {
        writer.append(campaign, ContributeEvent{1 + i % participants, amount});
      }
    }
    writer.commit();
  }
  const auto segments = storage::list_wal_segments(dir.string());
  ASSERT_EQ(segments.size(), 1u);
  expect_golden(read_file(dir / segments[0].second), {1850, 0x94f4c53au},
                "WAL segment");
  fs::remove_all(dir);
}

// --- ITSNAP05 image -------------------------------------------------

TEST(FormatGolden, SnapshotImageOfAThreeKindDeployment) {
  // One campaign per aggregate kind: geometric (aggregate engine), TDRM
  // (RCT chain) and L-Pachira written the way a batch-mode service wrote
  // it (kind 0, no accumulators), which readers still accept.
  storage::SnapshotData data;
  data.last_seq = 0x123456;
  data.mechanism = "golden mixed deployment";
  const std::vector<std::pair<std::string, AggregateKind>> kinds = {
      {"geometric", AggregateKind::kAggregateEngine},
      {"tdrm", AggregateKind::kRctChain},
      {"l-pachira", AggregateKind::kNone},
  };
  for (std::size_t c = 0; c < kinds.size(); ++c) {
    const MechanismPtr mechanism =
        make_mechanism(kinds[c].first, parse_param_string(""));
    RewardService service(*mechanism);
    for (std::uint32_t i = 0; i < 40 + 15 * c; ++i) {
      const NodeId n = static_cast<NodeId>(service.tree().participant_count());
      if (n == 0 || i % 3 != 2) {
        service.apply(JoinEvent{n == 0 ? kRoot : (i * 13) % (n + 1),
                                0.5 + 0.125 * (i % 11)});
      } else {
        service.apply(ContributeEvent{1 + (i * 5) % n, 0.3 * (i % 7)});
      }
    }
    storage::CampaignSnapshot snap;
    snap.events_applied = service.events_applied();
    snap.tree = service.tree();
    snap.aggregate_kind = static_cast<std::uint8_t>(kinds[c].second);
    if (kinds[c].second != AggregateKind::kNone) {
      ASSERT_EQ(service.aggregate_kind(), kinds[c].second) << kinds[c].first;
      snap.aggregates = service.export_aggregates();
    }
    data.campaigns.push_back(std::move(snap));
  }
  const std::string image = storage::encode_snapshot_v5(data);
  // The depth section is written empty (three campaigns x one page
  // fewer than the six-column arena's {86016, 0xf17526b3}).
  expect_golden(image, {73728, 0xb7215e97u}, "ITSNAP05 image");
  // What a reader returns re-encodes to the same bytes.
  EXPECT_EQ(storage::encode_snapshot_v5(storage::decode_snapshot(image)),
            image);
}

}  // namespace
}  // namespace itree
