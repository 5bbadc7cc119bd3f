// End-to-end tests of the replication subsystem: a primary server plus
// read replicas running in-process. Covers the acceptance bar of the
// subsystem — replicas bit-identical to the primary at a drained
// sequence across mechanisms and reactor counts — plus the consistency
// token (read-your-writes, staleness bounce), write redirection, and
// the crash-point sweep over replica bootstrap (killed mid-snapshot
// download, killed mid-tail replay).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "core/registry.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "replication/repl_client.h"
#include "replication/replica.h"
#include "storage/storage.h"
#include "storage/wal.h"
#include "util/rng.h"

namespace itree::replication {
namespace {

namespace fs = std::filesystem;
using net::Client;
using net::ErrorCode;
using net::ServerConfig;
using net::ServiceError;

/// Factory name recorded in MANIFEST for each tested mechanism.
const char* factory_name(MechanismKind kind) {
  switch (kind) {
    case MechanismKind::kTdrm:
      return "tdrm";
    case MechanismKind::kCdrmReciprocal:
      return "cdrm-1";
    case MechanismKind::kGeometric:
      return "geometric";
    default:
      return "geometric";
  }
}

/// One in-process server (primary or replica) on its own thread.
struct ServerHandle {
  std::unique_ptr<net::Server> server;
  std::unique_ptr<ReplicaSync> sync;  ///< replicas only
  std::thread loop;

  void run() {
    loop = std::thread([this] { server->run(); });
  }

  void stop() {
    if (server != nullptr && loop.joinable()) {
      server->request_shutdown();
      loop.join();
    }
  }

  ~ServerHandle() { stop(); }

  Client connect() const { return Client("127.0.0.1", server->port()); }
};

constexpr std::size_t kCampaigns = 3;

class ReplicationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = fs::temp_directory_path() /
            (std::string("itree_repl_test_") + info->name());
    fs::remove_all(root_);
    fs::create_directories(root_);
  }

  void TearDown() override {
    replicas_.clear();  // replicas first: their pullers talk to the primary
    primary_.reset();
    fs::remove_all(root_);
  }

  /// Creates the mechanism under test and boots the primary. The
  /// fixture owns the mechanism: servers drain in TearDown(), which
  /// runs after test-body locals are destroyed, so the mechanism must
  /// not live on the test body's stack.
  void start_primary(MechanismKind kind, std::size_t reactors = 1,
                     std::uint64_t snapshot_every = 0) {
    kind_ = kind;
    mechanism_ = make_default(kind);
    ServerConfig config;
    config.storage.snapshot_every = snapshot_every;
    config.port = 0;
    config.campaigns = kCampaigns;
    config.reactors = reactors;
    config.storage.data_dir = (root_ / "primary").string();
    config.storage.mechanism_name = factory_name(kind);
    primary_ = std::make_unique<ServerHandle>();
    primary_->server = std::make_unique<net::Server>(*mechanism_, config);
    primary_->run();
  }

  /// Boots a replica of the current primary. Empty `data_dir` = an
  /// in-memory replica; otherwise a durable one rooted there.
  ServerHandle& start_replica(const std::string& data_dir = "",
                              std::size_t reactors = 1,
                              double serve_stale_seconds = 5.0) {
    ReplicaOptions options;
    options.primary_host = "127.0.0.1";
    options.primary_port = primary_->server->port();
    options.serve_stale_seconds = serve_stale_seconds;

    ServerConfig config;
    config.port = 0;
    config.campaigns = kCampaigns;
    config.reactors = reactors;
    if (!data_dir.empty()) {
      prepare_replica_data_dir(data_dir, options);
      config.storage.data_dir = data_dir;
      config.storage.mechanism_name = factory_name(kind_);
      config.storage.snapshot_every = 0;
    }

    auto handle = std::make_unique<ServerHandle>();
    handle->server = std::make_unique<net::Server>(*mechanism_, config);
    handle->sync = std::make_unique<ReplicaSync>(*mechanism_, *handle->server,
                                                 options);
    handle->server->attach_replica(handle->sync.get(), serve_stale_seconds);
    handle->run();
    replicas_.push_back(std::move(handle));
    return *replicas_.back();
  }

  /// Drives a seeded mixed join/contribute workload across all
  /// campaigns through the primary; returns the primary's committed
  /// sequence after the last ack.
  std::uint64_t drive_workload(int events, std::uint64_t seed = 17) {
    Client client = primary_->connect();
    Rng rng(seed);
    std::vector<std::size_t> population(kCampaigns, 0);
    for (int event = 0; event < events; ++event) {
      const std::uint32_t campaign =
          static_cast<std::uint32_t>(event % kCampaigns);
      std::size_t& n = population[campaign];
      if (n == 0 || rng.bernoulli(0.65)) {
        const NodeId parent = (n == 0 || rng.bernoulli(0.1))
                                  ? kRoot
                                  : static_cast<NodeId>(1 + rng.index(n));
        client.join(campaign, parent, rng.uniform(0.0, 3.0));
        ++n;
      } else {
        client.contribute(campaign, static_cast<NodeId>(1 + rng.index(n)),
                          rng.uniform(0.0, 2.0));
      }
    }
    return client.server_stats().committed_seq;
  }

  /// Polls until the replica's applied floor reaches `seq`.
  void wait_caught_up(const ServerHandle& replica, std::uint64_t seq) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (replica.sync->applied_floor() < seq) {
      ASSERT_FALSE(replica.sync->failed())
          << "replication failed: " << replica.sync->last_error();
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "replica stuck at " << replica.sync->applied_floor()
          << ", want " << seq;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  /// Asserts every campaign's reward vector is bit-identical between
  /// the primary and the replica, over the wire (raw IEEE-754 bits).
  void expect_bit_identical(const ServerHandle& replica) {
    Client primary = primary_->connect();
    Client secondary = replica.connect();
    for (std::uint32_t campaign = 0; campaign < kCampaigns; ++campaign) {
      const std::vector<double> want = primary.rewards(campaign);
      const std::vector<double> got = secondary.rewards(campaign);
      ASSERT_EQ(got.size(), want.size()) << "campaign " << campaign;
      for (std::size_t u = 0; u < want.size(); ++u) {
        EXPECT_EQ(got[u], want[u])
            << "campaign " << campaign << " node " << u;
      }
    }
  }

  fs::path root_;
  MechanismKind kind_ = MechanismKind::kGeometric;
  MechanismPtr mechanism_;
  std::unique_ptr<ServerHandle> primary_;
  std::vector<std::unique_ptr<ServerHandle>> replicas_;
};

// --- Acceptance: replica == primary, bit for bit --------------------

struct DigestCase {
  MechanismKind kind;
  std::size_t reactors;
};

/// "Tdrm_1Reactor": the instance name, and what gtest prints for the
/// param. Its default print is the struct's raw bytes, padding
/// included, which differ from build to build.
std::string case_name(const DigestCase& param) {
  const char* kind = "";
  switch (param.kind) {
    case MechanismKind::kTdrm:
      kind = "Tdrm";
      break;
    case MechanismKind::kCdrmReciprocal:
      kind = "CdrmReciprocal";
      break;
    case MechanismKind::kGeometric:
      kind = "Geometric";
      break;
    default:
      ADD_FAILURE() << "DigestCase kind has no name";
  }
  return std::string(kind) + "_" + std::to_string(param.reactors) +
         (param.reactors == 1 ? "Reactor" : "Reactors");
}

void PrintTo(const DigestCase& param, std::ostream* out) {
  *out << case_name(param);
}

class ReplicaDigestEquality
    : public ReplicationTest,
      public ::testing::WithParamInterface<DigestCase> {};

TEST_P(ReplicaDigestEquality, ReplicaMatchesPrimaryAtDrainedSeq) {
  const DigestCase param = GetParam();
  start_primary(param.kind, param.reactors);

  // An in-memory replica and a durable one, both at the swept reactor
  // count, fed concurrently while the workload runs.
  ServerHandle& memory_replica = start_replica("", param.reactors);
  ServerHandle& durable_replica = start_replica(
      (root_ / "replica_durable").string(), param.reactors);

  const std::uint64_t committed = drive_workload(360);
  ASSERT_GT(committed, 0u);
  wait_caught_up(memory_replica, committed);
  wait_caught_up(durable_replica, committed);

  expect_bit_identical(memory_replica);
  expect_bit_identical(durable_replica);

  // The replica identifies itself and reports its lag counters.
  Client client = memory_replica.connect();
  const net::ServerStatsBody stats = client.server_stats();
  EXPECT_EQ(stats.role, 1u);
  EXPECT_GE(stats.applied_seq, committed);
  EXPECT_GE(stats.primary_seq, committed);
  EXPECT_GT(stats.repl_records_shipped, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    MechanismsByReactors, ReplicaDigestEquality,
    ::testing::Values(DigestCase{MechanismKind::kTdrm, 1},
                      DigestCase{MechanismKind::kTdrm, 2},
                      DigestCase{MechanismKind::kCdrmReciprocal, 1},
                      DigestCase{MechanismKind::kCdrmReciprocal, 2},
                      DigestCase{MechanismKind::kGeometric, 1},
                      DigestCase{MechanismKind::kGeometric, 2}),
    [](const ::testing::TestParamInfo<DigestCase>& info) {
      return case_name(info.param);
    });

TEST_F(ReplicationTest, InMemoryReplicaBootstrapsFromACompactedPrimary) {
  // Once the primary's log is compacted past seq 1, an in-memory replica
  // must start from the primary's snapshot image: decoded from the
  // network buffer, each campaign adopted after the kind-byte check,
  // then the WAL tail shipped on top.
  start_primary(MechanismKind::kCdrmReciprocal, 1, /*snapshot_every=*/100);
  const std::uint64_t committed = drive_workload(360);
  ASSERT_GT(primary_->server->mutable_storage()->min_available_seq(), 1u);

  ServerHandle& replica = start_replica();
  wait_caught_up(replica, committed);
  expect_bit_identical(replica);
}

// --- Consistency tokens ---------------------------------------------

TEST_F(ReplicationTest, ReadYourWritesThroughTheToken) {
  start_primary(MechanismKind::kTdrm);
  ServerHandle& replica = start_replica();

  Client writer = primary_->connect();
  Client reader = replica.connect();
  // Write a burst, then immediately read each fresh participant's
  // reward on the replica with the write-ack token. The replica must
  // park the query until it applied that sequence — never answer from
  // a state that predates the write.
  for (int round = 0; round < 20; ++round) {
    const NodeId id = writer.join(0, kRoot, 1.0 + round);
    const std::uint64_t token = writer.last_write_seq();
    ASSERT_GT(token, 0u) << "durable primary must hand out tokens";
    const double got = reader.reward_query_at(0, id, token);
    const double want = writer.reward(0, id);
    EXPECT_EQ(got, want) << "round " << round;
  }
}

TEST_F(ReplicationTest,
       TwoReactorReplicaAnswersTokenReadsWhileThePullerApplies) {
  // Four writer/reader pairs on campaign 0: each writes to the primary,
  // then reads its write back from a 2-reactor replica with the
  // write-ack token while the replica's puller applies the other
  // pairs' records to the same campaign. Every participant joins under
  // the root and only its own writer touches it, so its reward is fixed
  // once its writes are applied: a token read must return exactly
  // that, and the drained replica must equal the primary bit for bit.
  start_primary(MechanismKind::kGeometric, 2);
  ServerHandle& replica = start_replica("", 2);

  constexpr int kPairs = 4;
  constexpr int kRounds = 40;
  std::vector<std::string> errors(kPairs);
  std::vector<std::thread> pairs;
  for (int p = 0; p < kPairs; ++p) {
    pairs.emplace_back([&, p] {
      try {
        Client writer = primary_->connect();
        Client reader = replica.connect();
        for (int round = 0; round < kRounds; ++round) {
          const NodeId id = writer.join(0, kRoot, 1.0 + p);
          writer.contribute(0, id, 0.25 * (round + 1));
          const std::uint64_t token = writer.last_write_seq();
          const double got = reader.reward_query_at(0, id, token);
          const double want = writer.reward(0, id);
          if (got != want) {
            throw std::runtime_error(
                "token read of node " + std::to_string(id) + " returned " +
                std::to_string(got) + ", want " + std::to_string(want));
          }
        }
      } catch (const std::exception& error) {
        errors[p] = error.what();
      }
    });
  }
  for (std::thread& pair : pairs) {
    pair.join();
  }
  for (int p = 0; p < kPairs; ++p) {
    EXPECT_EQ(errors[p], "") << "pair " << p;
  }
  Client primary = primary_->connect();
  const std::uint64_t committed = primary.server_stats().committed_seq;
  EXPECT_EQ(committed, std::uint64_t{2 * kPairs * kRounds});
  wait_caught_up(replica, committed);
  expect_bit_identical(replica);
}

TEST_F(ReplicationTest, FarFutureTokenBouncesAsLagging) {
  start_primary(MechanismKind::kGeometric);
  ServerHandle& replica = start_replica("", 1, /*serve_stale_seconds=*/0.05);
  drive_workload(30);

  Client reader = replica.connect();
  try {
    reader.reward_query_at(0, 1, /*min_seq=*/1u << 30);
    FAIL() << "a token far past the primary's watermark must bounce";
  } catch (const ServiceError& error) {
    EXPECT_EQ(error.code, ErrorCode::kReplicaLagging);
    EXPECT_NE(std::string(error.what()).find("token"), std::string::npos);
  }
  // The bounce is accounted and the session keeps serving.
  EXPECT_GE(reader.server_stats().token_bounces, 1u);
  EXPECT_NO_THROW(reader.rewards(0));
}

TEST_F(ReplicationTest, WritesToReplicaRedirectToPrimary) {
  start_primary(MechanismKind::kTdrm);
  ServerHandle& replica = start_replica();

  Client client = replica.connect();
  std::string redirect;
  try {
    client.join(0, kRoot, 1.0);
    FAIL() << "replicas must not accept writes";
  } catch (const ServiceError& error) {
    EXPECT_EQ(error.code, ErrorCode::kNotPrimary);
    redirect = error.what();
  }
  // The error message is the primary's endpoint — follow it and the
  // write lands.
  const std::string expected = "127.0.0.1:" +
      std::to_string(primary_->server->port());
  EXPECT_EQ(redirect, expected);
  Client primary = primary_->connect();
  EXPECT_EQ(primary.join(0, kRoot, 1.0), 1u);
  EXPECT_GE(client.server_stats().writes_redirected, 1u);
}

// --- Crash-point sweep: replica killed mid-bootstrap ----------------

// A crash between the snapshot download and the first storage open
// leaves a seeded directory without MANIFEST (save_snapshot is atomic,
// MANIFEST is written by the storage engine later). The next start
// must treat the directory as unborn: wipe, re-seed, catch up, and
// land bit-identical to the primary.
TEST_F(ReplicationTest, CrashMidSnapshotDownloadReseedsCleanly) {
  start_primary(MechanismKind::kTdrm);
  const std::uint64_t committed = drive_workload(240);

  ReplicaOptions options;
  options.primary_port = primary_->server->port();
  const fs::path dir = root_ / "replica_crashed";

  // Crash point 1: snapshot fully downloaded, MANIFEST never written.
  prepare_replica_data_dir(dir.string(), options);
  ASSERT_FALSE(fs::exists(dir / "MANIFEST"));

  // Crash point 2 (harsher): the seeded snapshot itself is torn — e.g.
  // the filesystem lost the tail. Still no MANIFEST, so the next start
  // must not even try to decode it.
  std::vector<fs::path> snapshots;
  for (const auto& entry : fs::directory_iterator(dir)) {
    snapshots.push_back(entry.path());
  }
  ASSERT_FALSE(snapshots.empty());
  fs::resize_file(snapshots.front(), fs::file_size(snapshots.front()) / 2);

  ServerHandle& replica = start_replica(dir.string());
  wait_caught_up(replica, committed);
  expect_bit_identical(replica);
  EXPECT_TRUE(fs::exists(dir / "MANIFEST"));
}

// A crash during tail replay leaves MANIFEST + snapshot + a WAL tail,
// possibly torn mid-record. Sweep truncation points across the tail:
// every restart must truncate to the clean prefix, re-fetch the rest
// from the primary, and land bit-identical at the drained sequence.
TEST_F(ReplicationTest, CrashMidTailReplaySweepRecovers) {
  start_primary(MechanismKind::kCdrmReciprocal);

  // Seed a replica directory with a snapshot at an early watermark,
  // then grow the primary past it so a real WAL tail exists.
  const std::uint64_t snapshot_seq = drive_workload(120, 5);
  ReplicaOptions options;
  options.primary_port = primary_->server->port();
  const fs::path seed_dir = root_ / "replica_seed";
  prepare_replica_data_dir(seed_dir.string(), options);
  const std::uint64_t committed = drive_workload(240, 6);
  ASSERT_GT(committed, snapshot_seq);

  // Materialize the tail locally the way the puller does — shipped
  // records appended through the storage engine — then "crash" by
  // closing the storage without a snapshot.
  {
    storage::StorageConfig config;
    config.data_dir = seed_dir.string();
    config.mechanism_name = factory_name(kind_);
    config.snapshot_every = 0;
    storage::Storage storage(*mechanism_, kCampaigns, config);
    std::uint64_t next = storage.committed_seq() + 1;
    ReplClient feed("127.0.0.1", primary_->server->port());
    while (next <= committed) {
      const SegmentFetch fetch = feed.fetch_segment(next, 4096);
      const ShippedBatch batch = decode_shipped_records(fetch.records, next);
      ASSERT_TRUE(batch.clean) << batch.reason;
      ASSERT_FALSE(batch.records.empty());
      for (const storage::WalRecord& record : batch.records) {
        storage.append_replicated(record);
      }
      next = batch.records.back().seq + 1;
      storage.commit();
    }
  }

  const auto segments = storage::list_wal_segments(seed_dir.string());
  ASSERT_FALSE(segments.empty());
  const fs::path tail = fs::path(seed_dir) / segments.back().second;
  const std::uint64_t tail_bytes = fs::file_size(tail);
  ASSERT_GT(tail_bytes, 64u);

  // Truncation sweep: mid-tail cuts (usually mid-record) and cuts a
  // few bytes short of the end (torn header / torn payload).
  const std::uint64_t cuts[] = {tail_bytes / 4, tail_bytes / 2,
                                (3 * tail_bytes) / 4, tail_bytes - 3,
                                tail_bytes - 11};
  int swept = 0;
  for (const std::uint64_t cut : cuts) {
    const fs::path dir = root_ / ("replica_cut_" + std::to_string(swept));
    fs::copy(seed_dir, dir, fs::copy_options::recursive);
    fs::resize_file(fs::path(dir) / segments.back().second, cut);

    ServerHandle& replica = start_replica(dir.string());
    wait_caught_up(replica, committed);
    expect_bit_identical(replica);
    replica.stop();
    ++swept;
  }
  EXPECT_EQ(swept, 5);
}

// A durable replica restarted after a graceful stop keeps its history
// and catches up from its own tail instead of re-bootstrapping.
TEST_F(ReplicationTest, DurableReplicaRestartResumesFromLocalTail) {
  start_primary(MechanismKind::kGeometric);
  const fs::path dir = root_ / "replica_restart";

  const std::uint64_t first = drive_workload(120, 9);
  {
    ServerHandle& replica = start_replica(dir.string());
    wait_caught_up(replica, first);
    replica.stop();
  }
  replicas_.clear();

  const std::uint64_t second = drive_workload(120, 10);
  ASSERT_GT(second, first);
  ServerHandle& replica = start_replica(dir.string());
  wait_caught_up(replica, second);
  expect_bit_identical(replica);
}

}  // namespace
}  // namespace itree::replication
