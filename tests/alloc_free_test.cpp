// The serving hot paths allocate nothing: a contribute's O(depth)
// ancestor walk, a point reward read and a replayed run of contributes
// touch only the aggregate columns. This binary replaces the global
// operator new/delete with counting versions and asserts a zero count
// across each path, for a service grown in memory and for one adopted
// from a mapped ITSNAP05 image (its parent column still borrowing the
// mapping) after the one write that privatizes what a contribute
// writes. A check that formats its message on the success path shows
// up here as one allocation per ancestor step. An in-process daemon
// answers warm single-frame requests without allocating either.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/factory.h"
#include "net/protocol.h"
#include "net/server.h"
#include "server/event.h"
#include "server/reward_service.h"
#include "storage/snapshot.h"
#include "tree/tree.h"
#include "util/le_codec.h"
#include "util/rng.h"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

// Plain malloc/free underneath, so sanitizer builds still check every
// block. GCC pairs the inlined free() with the `new` it sees at a call
// site and warns; the pairing is this file's own and consistent.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }

void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace itree {
namespace {

namespace fs = std::filesystem;
using storage::CampaignSnapshot;
using storage::MappedSnapshot;
using storage::SnapshotData;

constexpr std::size_t kParticipants = 20000;
constexpr std::size_t kCalls = 10000;

/// Heap allocations `body` makes.
template <typename Body>
std::size_t allocations_in(Body&& body) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  body();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

/// A service grown by kParticipants joins on a random recursive tree.
std::unique_ptr<RewardService> grown_service(const Mechanism& mechanism) {
  auto service = std::make_unique<RewardService>(mechanism);
  Rng rng(7);
  for (std::size_t i = 0; i < kParticipants; ++i) {
    const auto referrer =
        static_cast<NodeId>(rng.uniform_int(0, static_cast<std::int64_t>(i)));
    service->apply(JoinEvent{referrer, rng.uniform(0.0, 3.0)});
  }
  return service;
}

/// kCalls contributes to random participants, built before any count.
std::vector<Event> contribute_stream(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Event> events;
  events.reserve(kCalls);
  for (std::size_t i = 0; i < kCalls; ++i) {
    events.push_back(ContributeEvent{
        static_cast<NodeId>(
            rng.uniform_int(1, static_cast<std::int64_t>(kParticipants))),
        rng.uniform(0.0, 0.5)});
  }
  return events;
}

/// Expects zero allocations from kCalls apply(ContributeEvent), kCalls
/// reward(u) reads and one replay() of kCalls contributes.
void expect_hot_paths_allocation_free(RewardService& service) {
  const std::vector<Event> applied = contribute_stream(11);
  const std::vector<Event> replayed = contribute_stream(12);
  EXPECT_EQ(allocations_in([&] {
              for (const Event& event : applied) {
                service.apply(std::get<ContributeEvent>(event));
              }
            }),
            0u)
      << "apply(ContributeEvent)";
  double sink = 0.0;
  EXPECT_EQ(allocations_in([&] {
              for (const Event& event : applied) {
                sink += service.reward(
                    std::get<ContributeEvent>(event).participant);
              }
            }),
            0u)
      << "reward(u)";
  EXPECT_GT(sink, 0.0);
  EXPECT_EQ(allocations_in([&] { service.replay(replayed); }), 0u)
      << "replay()";
}

class AllocFree : public ::testing::TestWithParam<const char*> {};

TEST_P(AllocFree, GrownServiceHotPathsAllocateNothing) {
  const MechanismPtr mechanism = make_mechanism(GetParam(), {});
  const auto service = grown_service(*mechanism);
  ASSERT_EQ(service->aggregate_kind(), AggregateKind::kAggregateEngine);
  expect_hot_paths_allocation_free(*service);
}

TEST_P(AllocFree, MappedServiceHotPathsAllocateNothing) {
  const MechanismPtr mechanism = make_mechanism(GetParam(), {});
  const auto source = grown_service(*mechanism);
  const fs::path dir = fs::temp_directory_path() /
                       (std::string("itree_alloc_free_") + GetParam());
  fs::remove_all(dir);
  fs::create_directories(dir);
  SnapshotData data;
  data.last_seq = source->events_applied();
  data.mechanism = mechanism->display_name();
  CampaignSnapshot campaign;
  campaign.events_applied = source->events_applied();
  campaign.tree = Tree(source->tree());
  campaign.aggregate_kind = static_cast<std::uint8_t>(source->aggregate_kind());
  campaign.aggregates = source->export_aggregates();
  data.campaigns.push_back(std::move(campaign));
  storage::save_snapshot(dir.string(), data);

  RewardService service(*mechanism);
  {
    const MappedSnapshot mapped(
        (dir / storage::snapshot_name(data.last_seq)).string());
    SnapshotData adopted = mapped.materialize();
    CampaignSnapshot& snap = adopted.campaigns[0];
    service.adopt_snapshot(std::move(snap.tree), snap.events_applied,
                           std::move(snap.aggregates));
  }
  // The one write that privatizes what a contribute writes.
  service.apply(ContributeEvent{1, 0.25});
  EXPECT_GT(service.tree().borrowed_column_count(), 0u);
  expect_hot_paths_allocation_free(service);
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Mechanisms, AllocFree,
                         ::testing::Values("geometric", "cdrm-1",
                                           "split-proof"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

// TDRM's contribute rebuilds the participant's eps-chain in a scratch
// buffer that grows (geometrically) only when a chain longer than any
// rebuilt before comes along. Once it covers the longest chain, the
// contribute path, point reads and replay allocate nothing either.
TEST(AllocFreeTdrm, ContributePathAllocatesNothingOnceTheChainScratchFits) {
  const MechanismPtr mechanism = make_mechanism("tdrm", {});
  const auto service = grown_service(*mechanism);
  ASSERT_EQ(service->aggregate_kind(), AggregateKind::kRctChain);
  // Every participant the streams reach ends far below 10000 mu; one
  // newcomer outside their range with a chain that long sizes the
  // scratch for all of them.
  service->apply(JoinEvent{kRoot, 10000.0});
  expect_hot_paths_allocation_free(*service);
}

/// Writes `frame` whole and reads one response frame into `buffer`
/// over the blocking socket `fd`, allocating nothing; returns the
/// response's status byte (0 on a transport failure).
std::uint8_t round_trip(int fd, const std::string& frame,
                        std::array<char, 256>& buffer) {
  if (::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(frame.size())) {
    return 0;
  }
  const auto read_exactly = [&](std::size_t length) {
    for (std::size_t got = 0; got < length;) {
      const ssize_t n = ::recv(fd, buffer.data() + got, length - got, 0);
      if (n <= 0) {
        return false;
      }
      got += static_cast<std::size_t>(n);
    }
    return true;
  };
  if (!read_exactly(4)) {
    return 0;
  }
  const auto length = le::load<std::uint32_t>(buffer.data());
  if (length == 0 || length > buffer.size() || !read_exactly(length)) {
    return 0;
  }
  return static_cast<std::uint8_t>(buffer[0]);
}

TEST(AllocFreeDaemon, WarmSingleFrameRequestsAllocateNothing) {
  // A raw-socket client sends pre-encoded frames and reads into a fixed
  // buffer, so every allocation counted is the daemon's: decoding,
  // applying, framing the response into the session's out-queue and
  // flushing it. Warm-up sizes the out-queue ring, the spare chunk and
  // the tree's columns.
  const MechanismPtr mechanism = make_mechanism("geometric", {});
  net::Server server(*mechanism, net::ServerConfig{});
  std::thread loop([&] { server.run(); });
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  using net::MsgType;
  std::vector<std::string> frames;
  frames.push_back(net::frame(
      net::encode_request({MsgType::kJoin, 0, kRoot, 1.0})));
  for (std::uint64_t node = 1; node <= 8; ++node) {
    frames.push_back(net::frame(
        net::encode_request({MsgType::kJoin, 0, node, 1.0})));
  }
  const std::string contribute =
      net::frame(net::encode_request({MsgType::kContribute, 0, 5, 0.25}));
  const std::string reward =
      net::frame(net::encode_request({MsgType::kReward, 0, 5, 0.0}));
  std::array<char, 256> buffer{};
  for (const std::string& join : frames) {
    EXPECT_EQ(round_trip(fd, join, buffer),
              static_cast<std::uint8_t>(net::Status::kOkId));
  }
  for (int i = 0; i < 64; ++i) {
    round_trip(fd, contribute, buffer);
    round_trip(fd, reward, buffer);
  }
  std::size_t ok = 0;
  const std::size_t allocations = allocations_in([&] {
    for (int i = 0; i < 128; ++i) {
      ok += round_trip(fd, contribute, buffer) ==
            static_cast<std::uint8_t>(net::Status::kOk);
      ok += round_trip(fd, reward, buffer) ==
            static_cast<std::uint8_t>(net::Status::kOkValue);
    }
  });
  EXPECT_EQ(ok, 256u);
  EXPECT_EQ(allocations, 0u);
  ::close(fd);
  server.request_shutdown();
  loop.join();
}

TEST(AllocFreeChecks, BadNodeStillThrowsTheFormattedMessage) {
  Tree tree;
  tree.add_node(kRoot, 1.0);
  try {
    (void)tree.parent(7);
    FAIL() << "Tree::parent accepted a node that does not exist";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(), "Tree::parent: node does not exist");
  }
  EXPECT_THROW((void)tree.contribution(2), std::invalid_argument);
  EXPECT_THROW(tree.set_contribution(2, 1.0), std::invalid_argument);
  EXPECT_THROW((void)tree.depth(2), std::invalid_argument);
}

}  // namespace
}  // namespace itree
