// End-to-end tests of the campaign-sharded router (src/router/): a
// Router fronting per-shard in-process net::Server workers. Covers the
// subsystem's acceptance bar — bit-identical final rewards through the
// router at shard counts {1,2,4} x router reactors {1,2} versus a
// single-process server — plus worker kill/restart with WAL recovery,
// kShardDown fail-fast, NOT_PRIMARY and error-frame pass-through,
// SHARD_MAP, aggregated SERVER_STATS with stats_seq restart detection,
// and replication-frame rejection.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/registry.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "router/router.h"
#include "util/io.h"
#include "util/rng.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

namespace itree::router {
namespace {

namespace fs = std::filesystem;
using net::Client;
using net::ErrorCode;
using net::MsgType;
using net::Request;
using net::ServerConfig;
using net::ServiceError;

const char* factory_name(MechanismKind kind) {
  switch (kind) {
    case MechanismKind::kTdrm:
      return "tdrm";
    case MechanismKind::kCdrmReciprocal:
      return "cdrm-1";
    default:
      return "geometric";
  }
}

/// One in-process shard worker on its own thread.
struct WorkerHandle {
  std::unique_ptr<net::Server> server;
  std::thread loop;
  std::uint16_t port = 0;

  void run() {
    port = server->port();
    loop = std::thread([this] { server->run(); });
  }

  void stop() {
    if (server != nullptr && loop.joinable()) {
      server->request_shutdown();
      loop.join();
    }
  }

  ~WorkerHandle() { stop(); }
};

constexpr std::uint32_t kCampaigns = 4;

class RouterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = fs::temp_directory_path() /
            (std::string("itree_router_test_") + info->name());
    fs::remove_all(root_);
    fs::create_directories(root_);
  }

  void TearDown() override {
    stop_router();
    workers_.clear();
    fs::remove_all(root_);
  }

  /// Boots `shards` workers, each hosting the FULL campaign count (ids
  /// cross the router untranslated). `durable` gives each worker its
  /// own WAL under the test root; `port` pins a worker's port (restart
  /// tests), 0 = kernel-assigned.
  WorkerHandle& start_worker(std::size_t shard, bool durable,
                             std::uint16_t port = 0,
                             std::size_t reactors = 1) {
    ServerConfig config;
    config.port = port;
    config.campaigns = kCampaigns;
    config.reactors = reactors;
    if (durable) {
      config.storage.data_dir =
          (root_ / ("shard_" + std::to_string(shard))).string();
      config.storage.mechanism_name = factory_name(kind_);
    }
    auto handle = std::make_unique<WorkerHandle>();
    handle->server = std::make_unique<net::Server>(*mechanism_, config);
    handle->run();
    if (workers_.size() <= shard) {
      workers_.resize(shard + 1);
    }
    workers_[shard] = std::move(handle);
    return *workers_[shard];
  }

  void start_fleet(MechanismKind kind, std::size_t shards, bool durable,
                   std::size_t router_reactors = 1) {
    kind_ = kind;
    mechanism_ = make_default(kind);
    for (std::size_t shard = 0; shard < shards; ++shard) {
      start_worker(shard, durable);
    }
    RouterConfig config;
    config.campaigns = kCampaigns;
    for (const auto& worker : workers_) {
      config.shards.push_back("127.0.0.1:" +
                              std::to_string(worker->port));
    }
    config.reactors = router_reactors;
    router_ = std::make_unique<Router>(config);
    router_thread_ = std::thread([this] { router_->run(); });
    wait_all_healthy();
  }

  void stop_router() {
    if (router_ != nullptr && router_thread_.joinable()) {
      router_->request_shutdown();
      router_thread_.join();
    }
    router_.reset();
  }

  Client connect() const { return Client("127.0.0.1", router_->port()); }

  /// Polls SHARD_MAP until every backend link is up.
  void wait_all_healthy() {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (true) {
      try {
        Client probe = connect();
        const net::ShardMapBody map = probe.shard_map();
        std::size_t healthy = 0;
        for (const net::ShardMapEntry& entry : map.shards) {
          healthy += entry.healthy;
        }
        if (healthy == map.shards.size()) {
          return;
        }
      } catch (const std::exception&) {
      }
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "router backends never became healthy";
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  /// Seeded mixed join/contribute workload across all campaigns via one
  /// connection — one client, requests in order, so the per-campaign
  /// event streams are identical no matter how many shards serve them.
  void drive_workload(Client& client, int events, std::uint64_t seed) {
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
        client.contribute(campaign,
                          static_cast<NodeId>(1 + rng.index(n)),
                          rng.uniform(0.0, 2.0));
      }
    }
  }

  /// Final reward vectors for every campaign, queried through `client`.
  std::vector<std::vector<double>> final_rewards(Client& client) {
    std::vector<std::vector<double>> rewards;
    for (std::uint32_t c = 0; c < kCampaigns; ++c) {
      rewards.push_back(client.rewards(c));
    }
    return rewards;
  }

  /// The tentpole acceptance bar: the same seeded workload produces
  /// bit-identical reward vectors whether it is served by one process
  /// directly or routed across 1, 2 or 4 shard workers, at 1 or 2
  /// router reactors.
  void expect_digest_equality(MechanismKind kind) {
    constexpr int kEvents = 400;
    constexpr std::uint64_t kSeed = 99;

    // Single-process reference, no router.
    std::vector<std::vector<double>> reference;
    {
      MechanismPtr mechanism = make_default(kind);
      ServerConfig config;
      config.campaigns = kCampaigns;
      net::Server server(*mechanism, config);
      std::thread loop([&server] { server.run(); });
      {
        Client client("127.0.0.1", server.port());
        drive_workload(client, kEvents, kSeed);
        reference = final_rewards(client);
      }
      server.request_shutdown();
      loop.join();
    }
    ASSERT_EQ(reference.size(), kCampaigns);

    for (const std::size_t shards : {1u, 2u, 4u}) {
      for (const std::size_t reactors : {1u, 2u}) {
        SCOPED_TRACE("shards=" + std::to_string(shards) +
                     " reactors=" + std::to_string(reactors));
        start_fleet(kind, shards, /*durable=*/false, reactors);
        {
          Client client = connect();
          drive_workload(client, kEvents, kSeed);
          const auto routed = final_rewards(client);
          for (std::uint32_t c = 0; c < kCampaigns; ++c) {
            EXPECT_EQ(routed[c], reference[c]) << "campaign " << c;
          }
          const RouterCounters counters = router_->counters();
          EXPECT_GT(counters.requests_routed, 0u);
          EXPECT_EQ(counters.requests_routed, counters.responses_relayed);
          EXPECT_EQ(counters.shard_down_errors, 0u);
        }
        stop_router();
        workers_.clear();
      }
    }
  }

  fs::path root_;
  MechanismKind kind_ = MechanismKind::kGeometric;
  MechanismPtr mechanism_;
  std::vector<std::unique_ptr<WorkerHandle>> workers_;
  std::unique_ptr<Router> router_;
  std::thread router_thread_;
};

TEST_F(RouterTest, GeometricBitIdenticalAcrossShardAndReactorCounts) {
  expect_digest_equality(MechanismKind::kGeometric);
}

TEST_F(RouterTest, TdrmBitIdenticalAcrossShardAndReactorCounts) {
  expect_digest_equality(MechanismKind::kTdrm);
}

TEST_F(RouterTest, Cdrm1BitIdenticalAcrossShardAndReactorCounts) {
  expect_digest_equality(MechanismKind::kCdrmReciprocal);
}

TEST_F(RouterTest, ShardMapReportsTopologyAndHealth) {
  start_fleet(MechanismKind::kGeometric, 2, /*durable=*/false);
  Client client = connect();
  const net::ShardMapBody map = client.shard_map();
  EXPECT_EQ(map.campaigns, kCampaigns);
  ASSERT_EQ(map.shards.size(), 2u);
  for (std::size_t shard = 0; shard < map.shards.size(); ++shard) {
    EXPECT_EQ(map.shards[shard].endpoint,
              "127.0.0.1:" + std::to_string(workers_[shard]->port));
    EXPECT_EQ(map.shards[shard].healthy, 1);
    EXPECT_EQ(map.shards[shard].restarts, 0u);
  }
}

TEST_F(RouterTest, ShardMapOnPlainServerIsRejected) {
  start_fleet(MechanismKind::kGeometric, 1, /*durable=*/false);
  Client direct("127.0.0.1", workers_[0]->port);
  try {
    direct.shard_map();
    FAIL() << "expected kBadRequest";
  } catch (const ServiceError& error) {
    EXPECT_EQ(error.code, ErrorCode::kBadRequest);
  }
}

TEST_F(RouterTest, WriteAckTokensPassThroughForReadYourWrites) {
  start_fleet(MechanismKind::kGeometric, 2, /*durable=*/true);
  Client client = connect();
  const NodeId id = client.join(1, kRoot, 2.0);
  const std::uint64_t token = client.last_write_seq();
  EXPECT_GT(token, 0u) << "durable worker must issue write-ack tokens";
  // REWARD_AT with the token routes to the shard that issued it (same
  // campaign, same modulo), so the token is always satisfiable.
  const double at = client.reward_query_at(1, id, token);
  const double plain = client.reward(1, id);
  EXPECT_EQ(at, plain);
}

TEST_F(RouterTest, KilledWorkerFailsFastAndRestartResumesFromWal) {
  start_fleet(MechanismKind::kGeometric, 2, /*durable=*/true);
  Client client = connect();
  drive_workload(client, 200, 7);
  const auto before = final_rewards(client);
  const std::uint16_t port1 = workers_[1]->port;

  // Kill shard 1's worker. Campaigns 1 and 3 (odd) fail fast with
  // kShardDown; campaigns 0 and 2 keep serving.
  workers_[1]->stop();
  workers_[1].reset();
  try {
    (void)client.reward(1, 1);
    FAIL() << "expected kShardDown";
  } catch (const ServiceError& error) {
    EXPECT_EQ(error.code, ErrorCode::kShardDown);
    EXPECT_NE(error.what(), std::string());
  } catch (const std::runtime_error&) {
    // The in-flight frame can also die with the failing connection;
    // the next request must fail fast with the typed error.
  }
  Client retry = connect();
  try {
    (void)retry.reward(3, 1);
    FAIL() << "expected kShardDown";
  } catch (const ServiceError& error) {
    EXPECT_EQ(error.code, ErrorCode::kShardDown);
  }
  EXPECT_EQ(retry.rewards(0), before[0]) << "shard 0 must keep serving";
  EXPECT_GT(router_->counters().shard_down_errors, 0u);

  // Restart shard 1 on the SAME port from its WAL; the supervisor
  // notification short-circuits the reconnect backoff.
  start_worker(1, /*durable=*/true, port1);
  router_->note_shard_restarted(1);
  wait_all_healthy();

  Client after = connect();
  EXPECT_EQ(after.rewards(1), before[1]) << "WAL recovery must be exact";
  EXPECT_EQ(after.rewards(3), before[3]);
  // And the shard accepts new writes again.
  EXPECT_GT(after.join(1, kRoot, 1.0), 0u);
  EXPECT_GT(router_->counters().backend_reconnects, 0u);
}

TEST_F(RouterTest, AggregatedServerStatsSumWorkersAndDetectRestarts) {
  start_fleet(MechanismKind::kGeometric, 2, /*durable=*/true);
  Client client = connect();
  drive_workload(client, 100, 3);

  const net::ServerStatsBody first = client.server_stats();
  EXPECT_EQ(first.reactors, 2u) << "one reactor per worker, summed";
  EXPECT_GE(first.requests_served, 100u);
  EXPECT_GT(first.stats_seq, 0u);

  const net::ServerStatsBody second = client.server_stats();
  EXPECT_GT(second.stats_seq, first.stats_seq)
      << "router stats_seq must be strictly increasing";
  EXPECT_EQ(router_->counters().stats_resets_detected, 0u);

  // Restart a worker: its per-process stats_seq starts over, which the
  // next aggregation must detect instead of summing reset counters.
  const std::uint16_t port1 = workers_[1]->port;
  workers_[1]->stop();
  workers_[1].reset();
  start_worker(1, /*durable=*/true, port1);
  router_->note_shard_restarted(1);
  wait_all_healthy();
  Client again = connect();
  (void)again.server_stats();
  EXPECT_EQ(router_->counters().stats_resets_detected, 1u);
}

TEST_F(RouterTest, ReplicationFramesAreRejected) {
  start_fleet(MechanismKind::kGeometric, 2, /*durable=*/false);
  Client client = connect();
  Request hello;
  hello.type = MsgType::kReplHello;
  try {
    client.call(hello);
    FAIL() << "expected kRejected";
  } catch (const ServiceError& error) {
    EXPECT_EQ(error.code, ErrorCode::kRejected);
  }
}

TEST_F(RouterTest, UnknownCampaignBouncesAtTheRouter) {
  start_fleet(MechanismKind::kGeometric, 2, /*durable=*/false);
  Client client = connect();
  try {
    (void)client.reward(kCampaigns + 7, 1);
    FAIL() << "expected kUnknownCampaign";
  } catch (const ServiceError& error) {
    EXPECT_EQ(error.code, ErrorCode::kUnknownCampaign);
  }
}

TEST_F(RouterTest, MalformedFramesGetErrorsWithoutKillingTheSession) {
  start_fleet(MechanismKind::kGeometric, 1, /*durable=*/false);
  Client client = connect();
  // A truncated campaign-bearing payload bounces at the router...
  client.send_bytes(std::string("\x03\x00\x00\x00", 4) +
                    std::string("\x03\x01\x02", 3));
  const net::Response bounced = client.read_response();
  EXPECT_EQ(bounced.error, ErrorCode::kBadRequest);
  // ...and the session still serves typed requests afterwards.
  EXPECT_GT(client.join(0, kRoot, 1.0), 0u);
}

TEST_F(RouterTest, RemoteShutdownDrainsTheRouter) {
  start_fleet(MechanismKind::kGeometric, 2, /*durable=*/false);
  {
    Client client = connect();
    drive_workload(client, 40, 5);
    client.shutdown_server();  // acked before the drain completes
  }
  router_thread_.join();
  router_.reset();
}

/// A raw single-connection fake worker answering every frame with one
/// canned response — exercises byte-for-byte error pass-through
/// (NOT_PRIMARY redirects must reach the client unmodified).
class FakeShard {
 public:
  explicit FakeShard(std::string canned_payload)
      : canned_(std::move(canned_payload)) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listen_fd_, 4), 0);
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    loop_ = std::thread([this] { serve(); });
  }

  ~FakeShard() {
    stop_.store(true);
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    if (loop_.joinable()) {
      loop_.join();
    }
  }

  std::uint16_t port() const { return port_; }

 private:
  void serve() {
    while (!stop_.load()) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        return;
      }
      net::FrameDecoder decoder;
      char buffer[4096];
      while (!stop_.load()) {
        const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
        if (n <= 0) {
          break;
        }
        decoder.feed(buffer, static_cast<std::size_t>(n));
        std::string_view payload;
        while (decoder.next(&payload)) {
          const std::string frame = net::frame(canned_);
          if (!io::send_all(fd, frame.data(), frame.size())) {
            break;
          }
        }
      }
      ::close(fd);
    }
  }

  std::string canned_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread loop_;
  std::atomic<bool> stop_{false};
};

TEST(RouterPassThrough, NotPrimaryRedirectsCrossUnmodified) {
  FakeShard fake(net::encode_response(net::error_response(
      ErrorCode::kNotPrimary, "10.1.2.3:7431")));
  RouterConfig config;
  config.campaigns = 2;
  config.shards = {"127.0.0.1:" + std::to_string(fake.port())};
  Router router(config);
  std::thread loop([&router] { router.run(); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool redirected = false;
  while (!redirected) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    try {
      Client client("127.0.0.1", router.port());
      client.contribute(0, 1, 1.0);
      FAIL() << "expected kNotPrimary";
    } catch (const ServiceError& error) {
      EXPECT_EQ(error.code, ErrorCode::kNotPrimary);
      EXPECT_STREQ(error.what(), "10.1.2.3:7431")
          << "redirect target must cross the router byte-for-byte";
      redirected = true;
    } catch (const std::exception&) {
      // Backend not connected yet (kShardDown) — retry.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  router.request_shutdown();
  loop.join();
}

}  // namespace
}  // namespace itree::router
