// Tests for net::LoadDriver, the one seeded load driver behind
// itree-loadgen, bench_e14 and bench_e15: the request-mix presets are
// pinned decision for decision, every frame style must produce the same
// reward bits, open-loop latency must not include the arrival gap, and
// connection failures land in the report instead of escaping a thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/registry.h"
#include "net/client.h"
#include "net/load_driver.h"
#include "net/server.h"
#include "util/bench_json.h"
#include "util/stats.h"

namespace itree::net {
namespace {

/// Hash of a preset's first `count` decisions for a single writer on a
/// fresh campaign (joins get the sequential ids the server assigns).
std::uint64_t stream_hash(const RequestMix& mix, std::uint64_t count) {
  Rng rng = Rng(42).fork(0);
  std::vector<NodeId> mine;
  std::string text;
  for (std::uint64_t i = 0; i < count; ++i) {
    const Decision d = mix.next(rng, i, mine);
    if (d.is_event) {
      text += d.event.kind == BatchEvent::kJoin ? 'J' : 'C';
      text += std::to_string(d.event.node) + ':' +
              std::to_string(std::bit_cast<std::uint64_t>(d.event.amount));
      if (d.event.kind == BatchEvent::kJoin) {
        mine.push_back(static_cast<NodeId>(mine.size() + 1));
      }
    } else {
      text += 'Q' + std::to_string(static_cast<int>(d.query.type)) + ':' +
              std::to_string(d.query.node);
    }
    text += ';';
  }
  return fnv1a64(text);
}

TEST(RequestMix, PresetsReplayTheStreamsOfTheDriversTheyReplaced) {
  // Hashes taken from the hand-written mixes the presets replaced:
  // itree-loadgen's, bench_e14's main and --shards write streams, and
  // bench_e15's ingest stream. A change here moves every serving digest.
  EXPECT_EQ(digest_hex(stream_hash(RequestMix::loadgen(), 10000)),
            "0x859065de0875906b");
  EXPECT_EQ(digest_hex(stream_hash(RequestMix::service(), 10000)),
            "0xe99f7d77b50cd901");
  EXPECT_EQ(digest_hex(stream_hash(RequestMix::writes_only(0.6), 10000)),
            "0x867e59cb492dca6f");
  EXPECT_EQ(digest_hex(stream_hash(RequestMix::writes_only(0.35), 10000)),
            "0x0dfc6dee0c0b58ff");
}

/// One in-process server on an ephemeral port.
class Served {
 public:
  Served(const Mechanism& mechanism, std::uint32_t campaigns,
         std::size_t reactors) {
    ServerConfig config;
    config.campaigns = campaigns;
    config.reactors = reactors;
    server_ = std::make_unique<Server>(mechanism, config);
    loop_ = std::thread([this] { server_->run(); });
  }
  ~Served() {
    server_->request_shutdown();
    loop_.join();
  }

  std::uint16_t port() const { return server_->port(); }

 private:
  std::unique_ptr<Server> server_;
  std::thread loop_;
};

enum class Preset { kLoadgen, kService };

class FrameStyles
    : public ::testing::TestWithParam<std::tuple<Preset, std::size_t>> {};

TEST_P(FrameStyles, EveryStyleYieldsTheSameRewardBits) {
  const auto [preset, reactors] = GetParam();
  const MechanismPtr mechanism = make_default(MechanismKind::kGeometric);
  constexpr std::uint32_t kCampaigns = 2;
  LoadDriver classic;
  classic.connections = kCampaigns;
  classic.campaigns = kCampaigns;
  classic.requests = 1200;
  classic.mix = preset == Preset::kLoadgen ? RequestMix::loadgen()
                                           : RequestMix::service();
  LoadDriver streamed = classic;
  streamed.batch = 64;
  streamed.pipeline = 8;
  LoadDriver open_loop = classic;
  open_loop.rate = 40000.0;

  std::vector<std::vector<double>> baseline;
  std::uint64_t baseline_events = 0;
  for (LoadDriver* driver : {&classic, &streamed, &open_loop}) {
    Served served(*mechanism, kCampaigns, reactors);
    driver->port = served.port();
    const LoadReport report = driver->run(Rng(42));
    ASSERT_EQ(report.error, "");
    EXPECT_EQ(report.latencies_seconds.size(), report.frames);
    Client client("127.0.0.1", served.port());
    std::vector<std::vector<double>> rewards;
    for (std::uint32_t c = 0; c < kCampaigns; ++c) {
      rewards.push_back(client.rewards(c));
      EXPECT_LT(client.audit(c), 1e-9);
    }
    if (baseline.empty()) {
      baseline = std::move(rewards);
      baseline_events = report.events;
    } else {
      EXPECT_EQ(rewards, baseline)
          << "batch " << driver->batch << ", rate " << driver->rate;
      EXPECT_EQ(report.events, baseline_events);
    }
  }
  EXPECT_EQ(classic.streamed(), false);
  EXPECT_EQ(open_loop.streamed(), true);
}

/// "Loadgen_reactors2": the preset, then the reactor count.
std::string frame_styles_case_name(
    const ::testing::TestParamInfo<std::tuple<Preset, std::size_t>>& info) {
  const auto [preset, reactors] = info.param;
  return std::string(preset == Preset::kLoadgen ? "Loadgen" : "Service") +
         "_reactors" + std::to_string(reactors);
}

INSTANTIATE_TEST_SUITE_P(
    PresetsAndReactors, FrameStyles,
    ::testing::Combine(::testing::Values(Preset::kLoadgen,
                                         Preset::kService),
                       ::testing::Values(std::size_t{1}, std::size_t{2})),
    frame_styles_case_name);

/// A clock that stands still while the driver reads responses and jumps
/// straight to each scheduled arrival when the driver sleeps: every
/// response comes back at the instant its frame was sent, so a latency
/// above zero is exactly the schedule arithmetic charging a wait.
class SteppedClock final : public LoadClock {
 public:
  double now() const override { return now_; }
  void sleep_until(double t) const override { now_ = std::max(now_, t); }
  /// Waits for in-flight responses (up to 5 s of real time) only while
  /// the next arrival is still ahead.
  double read_deadline(double t) const override {
    return monotonic_seconds() + (t > now_ ? 5.0 : 0.0);
  }

 private:
  mutable double now_ = 0.0;
};

TEST(LoadDriver, OpenLoopLatencyExcludesTheArrivalGap) {
  // 20 req/s leaves 50 ms between arrivals; a frame answered before the
  // next arrival must not be charged the wait for it. The stepped clock
  // makes every answer instant, so the bound below holds however busy
  // the host is, and fails only if the wait is charged.
  const MechanismPtr mechanism = make_default(MechanismKind::kGeometric);
  Served served(*mechanism, 1, 1);
  LoadDriver driver;
  driver.port = served.port();
  driver.requests = 10;
  driver.pipeline = 4;
  driver.rate = 20.0;
  const SteppedClock clock;
  const LoadReport report = driver.run(Rng(42), clock);
  ASSERT_EQ(report.error, "");
  ASSERT_EQ(report.latencies_seconds.size(), report.frames);
  EXPECT_LT(percentile(report.latencies_seconds, 50), 5e-3);
  // The run did wait out the schedule: ten arrivals 50 ms apart.
  EXPECT_DOUBLE_EQ(report.wall_seconds, 9 / 20.0);
}

TEST(LoadDriver, SharedCampaignReportsTheIdPredictionMiss) {
  // Streamed frames predict join ids, so two writers on one campaign
  // must fail — in the report, not by throwing out of a driver thread.
  const MechanismPtr mechanism = make_default(MechanismKind::kGeometric);
  Served served(*mechanism, 1, 1);
  LoadDriver driver;
  driver.port = served.port();
  driver.connections = 2;
  driver.campaigns = 1;
  driver.requests = 40;
  driver.mix = RequestMix::writes_only(0.6);
  driver.rate = 200.0;  // both writers overlap for ~0.4 s
  LoadReport report;
  EXPECT_NO_THROW(report = driver.run(Rng(42)));
  EXPECT_NE(report.error.find("predicted id"), std::string::npos)
      << report.error;
}

TEST(Client, ReadResponseUntilTimesOutThenDeliversBufferedFrames) {
  const MechanismPtr mechanism = make_default(MechanismKind::kGeometric);
  Served served(*mechanism, 1, 1);
  Client client("127.0.0.1", served.port());
  EXPECT_FALSE(client.read_response_until(monotonic_seconds() + 0.01));
  Request stats;
  stats.type = MsgType::kStats;
  client.send_request(stats);
  client.send_request(stats);
  // Let both answers reach the socket, so one recv buffers them both.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const std::optional<Response> first =
      client.read_response_until(monotonic_seconds() + 5.0);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->status, Status::kOkStats);
  // A past deadline still returns the frame the decoder holds.
  const std::optional<Response> second =
      client.read_response_until(monotonic_seconds() - 1.0);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->status, Status::kOkStats);
  EXPECT_FALSE(client.read_response_until(monotonic_seconds()));
}

}  // namespace
}  // namespace itree::net
