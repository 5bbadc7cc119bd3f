// Integration tests for the reward-service daemon: protocol codecs,
// endpoint parsing, loopback equivalence with the in-process service,
// and the robustness guarantees (malformed frames, mid-frame
// disconnects, backpressure, idle timeouts, graceful drain). The
// transport guarantees of the shared event loop run against both front
// ends: the server directly and a router in front of it.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/registry.h"
#include "net/client.h"
#include "net/endpoint.h"
#include "net/event_loop.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/spsc_ring.h"
#include "router/router.h"
#include "server/event_log.h"
#include "util/io.h"
#include "util/le_codec.h"
#include "util/rng.h"
#include "util/strings.h"

namespace itree::net {
namespace {

// --- Codec unit tests -----------------------------------------------

TEST(Protocol, RequestsRoundTrip) {
  const Request cases[] = {
      {MsgType::kJoin, 3, 17, 2.25},
      {MsgType::kContribute, 0, 5, -1.5},
      {MsgType::kReward, 2, 9, 0.0},
      {MsgType::kRewardsBatch, 1, 0, 0.0},
      {MsgType::kAudit, 7, 0, 0.0},
      {MsgType::kStats, 0, 0, 0.0},
      {MsgType::kShutdown, 0, 0, 0.0},
  };
  for (const Request& request : cases) {
    EXPECT_EQ(decode_request(encode_request(request)), request);
  }
}

TEST(Protocol, ResponsesRoundTrip) {
  Response vector;
  vector.status = Status::kOkVector;
  vector.rewards = {0.0, 1.5, 2.25, -0.125};
  const Response decoded =
      decode_response(encode_response(vector));
  EXPECT_EQ(decoded.rewards, vector.rewards);

  Response stats;
  stats.status = Status::kOkStats;
  stats.stats = {12, 7, 42.5, true};
  EXPECT_EQ(decode_response(encode_response(stats)).stats, stats.stats);

  const Response error = error_response(ErrorCode::kRejected, "nope");
  const Response decoded_error =
      decode_response(encode_response(error));
  EXPECT_EQ(decoded_error.error, ErrorCode::kRejected);
  EXPECT_EQ(decoded_error.message, "nope");
}

TEST(Protocol, DecodersRejectGarbage) {
  EXPECT_THROW(decode_request(""), ProtocolError);
  EXPECT_THROW(decode_request("\x7f"), ProtocolError);
  EXPECT_THROW(decode_request(std::string("\x01\x00", 2)), ProtocolError);
  // Valid request plus trailing junk.
  EXPECT_THROW(
      decode_request(encode_request({MsgType::kStats, 0, 0, 0.0}) + "x"),
      ProtocolError);
  EXPECT_THROW(decode_response("\x00"), ProtocolError);
  // OK_VECTOR counts whose byte size wraps 64 bits must not pass the
  // bounds check (and then fail in the allocator instead).
  for (const std::uint64_t count :
       {std::uint64_t{1} << 61, (std::uint64_t{1} << 61) + 1,
        ~std::uint64_t{0}}) {
    std::string payload = "\x83";
    for (int shift = 0; shift < 64; shift += 8) {
      payload.push_back(static_cast<char>((count >> shift) & 0xff));
    }
    EXPECT_THROW(decode_response(payload), ProtocolError) << count;
    EXPECT_THROW(decode_response(payload + std::string(16, '\0')),
                 ProtocolError)
        << count;
  }
}

TEST(Protocol, RewardVectorBytesAreTheLittleEndianArray) {
  Response response;
  response.status = Status::kOkVector;
  response.rewards = {0.0,
                      -0.0,
                      std::numeric_limits<double>::denorm_min() * 3,
                      std::numeric_limits<double>::infinity(),
                      std::bit_cast<double>(std::uint64_t{0x7ff8dead0000beef}),
                      1.5};
  // Byte-by-byte reference: status, u64 count, then each double's bits,
  // least significant byte first.
  std::string want = "\x83";
  const auto put = [&want](std::uint64_t v) {
    for (int shift = 0; shift < 64; shift += 8) {
      want.push_back(static_cast<char>((v >> shift) & 0xff));
    }
  };
  put(response.rewards.size());
  for (const double reward : response.rewards) {
    put(std::bit_cast<std::uint64_t>(reward));
  }
  EXPECT_EQ(encode_response(response), want);
  std::string framed = "keep";
  append_framed_response(framed, response);
  EXPECT_EQ(framed, "keep" + frame(want));

  const Response decoded = decode_response(want);
  ASSERT_EQ(decoded.rewards.size(), response.rewards.size());
  for (std::size_t i = 0; i < response.rewards.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(decoded.rewards[i]),
              std::bit_cast<std::uint64_t>(response.rewards[i]))
        << i;
  }

  Response empty;
  empty.status = Status::kOkVector;
  EXPECT_EQ(encode_response(empty), std::string("\x83", 1) + std::string(8, '\0'));
  const Response decoded_empty = decode_response(encode_response(empty));
  EXPECT_EQ(decoded_empty.status, Status::kOkVector);
  EXPECT_TRUE(decoded_empty.rewards.empty());
}

TEST(Protocol, LargestRewardVectorFramesAndOneMoreIsRefused) {
  // Status byte + u64 count + 8 bytes per reward must fit kMaxFrameBytes
  // (about 2M participants). One reward more and append_framed_response
  // throws with `out` untouched — the server then answers kRejected
  // "response exceeds frame size limit".
  const std::size_t largest = (kMaxFrameBytes - 9) / 8;
  Response response;
  response.status = Status::kOkVector;
  response.rewards.resize(largest);
  for (std::size_t i = 0; i < largest; ++i) {
    response.rewards[i] = static_cast<double>(i) * 0.25;
  }
  std::string out = "prefix";
  append_framed_response(out, response);
  ASSERT_EQ(out.size(), 6 + 4 + 9 + 8 * largest);

  // Through the frame decoder in socket-sized pieces.
  FrameDecoder decoder;
  std::string_view payload;
  for (std::size_t at = 6; at < out.size(); at += 65536) {
    EXPECT_FALSE(decoder.next(&payload));
    decoder.feed(std::string_view(out).substr(at, 65536));
  }
  ASSERT_TRUE(decoder.next(&payload));
  EXPECT_EQ(decode_response(payload).rewards, response.rewards);

  response.rewards.push_back(1.0);
  std::string refused = "prefix";
  EXPECT_THROW(append_framed_response(refused, response), ProtocolError);
  EXPECT_EQ(refused, "prefix");
}

TEST(Protocol, FrameDecoderHandlesFragmentation) {
  const std::string one = frame(encode_request({MsgType::kStats, 4, 0, 0.0}));
  const std::string two =
      frame(encode_request({MsgType::kJoin, 1, 0, 2.0}));
  const std::string stream = one + two;
  // Feed byte by byte: frames must pop exactly at their boundaries.
  FrameDecoder decoder;
  std::vector<std::string> payloads;
  std::string_view payload;
  for (const char byte : stream) {
    decoder.feed(&byte, 1);
    while (decoder.next(&payload)) {
      payloads.emplace_back(payload);
    }
  }
  ASSERT_EQ(payloads.size(), 2u);
  EXPECT_EQ(decode_request(payloads[0]).campaign, 4u);
  EXPECT_EQ(decode_request(payloads[1]).type, MsgType::kJoin);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(Protocol, FrameDecoderFlagsOversizedAndZeroLengths) {
  for (const std::uint32_t length : {0u, kMaxFrameBytes + 1}) {
    FrameDecoder decoder;
    char prefix[4];
    for (int i = 0; i < 4; ++i) {
      prefix[i] = static_cast<char>((length >> (8 * i)) & 0xff);
    }
    decoder.feed(prefix, sizeof(prefix));
    std::string_view payload;
    EXPECT_FALSE(decoder.next(&payload));
    EXPECT_TRUE(decoder.corrupt());
    // Poisoned: further bytes are dropped, next() stays false.
    decoder.feed("abcdefgh", 8);
    EXPECT_FALSE(decoder.next(&payload));
  }
}

/// An OK_VECTOR of `count` rewards with every bit pattern class: signed
/// zeros, NaN payloads, subnormals, huge values.
Response reward_vector(std::size_t count) {
  Response response;
  response.status = Status::kOkVector;
  response.rewards.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    response.rewards[i] =
        i % 5 == 0   ? (i % 2 == 0 ? 0.0 : -0.0)
        : i % 5 == 1 ? std::bit_cast<double>(0x7ff8000000000000ull | i)
        : i % 5 == 2 ? std::numeric_limits<double>::denorm_min() *
                           static_cast<double>(i)
                     : static_cast<double>(i) * 1e290 / 3.0;
  }
  return response;
}

void expect_same_bits(const std::vector<double>& got,
                      const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << "entry " << i;
  }
}

TEST(Protocol, VectorFramedOnceEqualsTheEncodedVector) {
  // REWARDS writes the header, then the rewards block by block, into the
  // frame the response carries; those bytes are the encoder's bytes.
  const Response vector = reward_vector(10007);
  Response framed;
  framed.status = Status::kOkVector;
  append_vector_frame_header(framed.framed, vector.rewards.size());
  const std::span<const double> all(vector.rewards);
  for (std::size_t first = 0; first < all.size(); first += 4096) {
    le::put_array(framed.framed,
                  all.subspan(first, std::min<std::size_t>(
                                         4096, all.size() - first)));
  }
  EXPECT_EQ(framed.framed, frame(encode_response(vector)));
  EXPECT_EQ(encode_response(framed), encode_response(vector));
  std::string direct = "prefix";
  append_framed_response(direct, framed);
  EXPECT_EQ(direct, "prefix" + framed.framed);
  expect_same_bits(decode_response(encode_response(framed)).rewards,
                   vector.rewards);
  // One reward more than a frame holds is refused, `out` untouched.
  std::string refused = "prefix";
  EXPECT_THROW(
      append_vector_frame_header(refused, (kMaxFrameBytes - 9) / 8 + 1),
      ProtocolError);
  EXPECT_EQ(refused, "prefix");
}

TEST(Protocol, FrameDecoderReceivesInPlaceAtAnyPieceSize) {
  // A large OK_VECTOR between two small frames, received in place one
  // byte at a time and in 1 MiB pieces: the same payloads pop out, and
  // once a frame's length is in, recv_room() offers the rest of it.
  const Response vector = reward_vector(300000);
  const std::string stream = frame(encode_response(Response{})) +
                             frame(encode_response(vector)) +
                             frame(encode_response(reward_vector(3)));
  for (const std::size_t piece : {std::size_t{1}, std::size_t{1} << 20}) {
    FrameDecoder decoder;
    std::vector<Response> decoded;
    for (std::size_t at = 0; at < stream.size();) {
      const std::span<char> room = decoder.recv_room();
      ASSERT_GE(room.size(), FrameDecoder::kRecvBytes);
      const std::size_t n = std::min({piece, room.size(), stream.size() - at});
      std::copy_n(stream.data() + at, n, room.data());
      decoder.commit(n);
      at += n;
      std::string_view payload;
      while (decoder.next(&payload)) {
        decoded.push_back(decode_response(payload));
      }
      if (at == 5 + 8) {
        // The first frame is out and the big frame's prefix is in: the
        // room holds all of the big frame's rest.
        const std::size_t big_frame = 4 + 9 + 8 * vector.rewards.size();
        EXPECT_GE(decoder.recv_room().size(), big_frame - decoder.buffered());
      }
    }
    ASSERT_EQ(decoded.size(), 3u) << "piece " << piece;
    EXPECT_EQ(decoded[0].status, Status::kOk);
    expect_same_bits(decoded[1].rewards, vector.rewards);
    expect_same_bits(decoded[2].rewards, reward_vector(3).rewards);
    EXPECT_EQ(decoder.buffered(), 0u);
  }
}

TEST(Protocol, FrameDecoderHoldsOnlyWhatItBuffers) {
  // Small frames pass through the per-thread scratch: an idle session
  // that has only ever received requests holds their bytes, not a
  // receive-sized buffer. A large frame gets one allocation of its
  // announced size, not a doubling.
  const std::string small = frame(encode_request({MsgType::kStats, 4, 0, 0.0}));
  FrameDecoder decoder;
  FrameDecoder other;  // shares this thread's scratch
  for (int i = 0; i < 200; ++i) {
    for (FrameDecoder* d : {&decoder, &other}) {
      const std::span<char> room = d->recv_room();
      ASSERT_GE(room.size(), FrameDecoder::kRecvBytes);
      std::copy(small.begin(), small.end(), room.begin());
      d->commit(small.size());
    }
    for (FrameDecoder* d : {&decoder, &other}) {
      std::string_view payload;
      ASSERT_TRUE(d->next(&payload));
      EXPECT_EQ(decode_request(payload).campaign, 4u);
      EXPECT_FALSE(d->next(&payload));
    }
  }
  EXPECT_LE(decoder.capacity(), 2 * small.size());
  EXPECT_LE(other.capacity(), 2 * small.size());

  const std::string big = frame(encode_response(reward_vector(100000)));
  decoder.feed(big.data(), 16);
  decoder.feed(big.data() + 16, big.size() - 16);
  std::string_view payload;
  ASSERT_TRUE(decoder.next(&payload));
  EXPECT_EQ(payload, std::string_view(big).substr(4));
  EXPECT_LE(decoder.capacity(), big.size());
}

/// A loopback peer that accepts one connection and writes `stream` to
/// it in `piece`-byte sends, then closes.
class ScriptedPeer {
 public:
  ScriptedPeer(std::string stream, std::size_t piece) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t length = sizeof(addr);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), length) != 0 ||
        ::listen(listen_fd_, 1) != 0 ||
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                      &length) != 0) {
      throw std::runtime_error("ScriptedPeer: cannot listen");
    }
    port_ = ntohs(addr.sin_port);
    writer_ = std::thread([this, stream = std::move(stream), piece] {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      for (std::size_t at = 0; at < stream.size(); at += piece) {
        io::send_all(fd, stream.data() + at,
                     std::min(piece, stream.size() - at));
      }
      ::close(fd);
    });
  }
  ~ScriptedPeer() {
    writer_.join();
    ::close(listen_fd_);
  }
  std::uint16_t port() const { return port_; }

 private:
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread writer_;
};

TEST(ClientReceive, RewardsFrameInAnyPiecesDecodesIdentically) {
  // net::Client receives straight into its decoder's buffer: a REWARDS
  // frame sent one byte per send(), or in 1 MiB sends, and the frame
  // behind it decode to the same bits.
  const Response small = reward_vector(1500);
  const Response large = reward_vector(400000);
  const Response tail = reward_vector(5);
  for (const auto& [vector, piece] :
       {std::pair{&small, std::size_t{1}},
        std::pair{&large, std::size_t{1} << 20}}) {
    ScriptedPeer peer(frame(encode_response(*vector)) +
                          frame(encode_response(tail)),
                      piece);
    Client client("127.0.0.1", peer.port());
    expect_same_bits(client.read_response().rewards, vector->rewards);
    expect_same_bits(client.read_response().rewards, tail.rewards);
  }
}

TEST(Protocol, EventBatchRequestsRoundTrip) {
  Request request;
  request.type = MsgType::kEventBatch;
  request.campaign = 6;
  request.batch = {
      {BatchEvent::kJoin, kRoot, 1.5},
      {BatchEvent::kJoin, 1, 0.25},
      {BatchEvent::kContribute, 2, 3.125},
  };
  EXPECT_EQ(decode_request(encode_request(request)), request);
  // An empty batch is legal on the wire (a no-op the server acks).
  request.batch.clear();
  EXPECT_EQ(decode_request(encode_request(request)), request);
}

TEST(Protocol, BatchResponsesRoundTripCompleteAndPartial) {
  Response complete;
  complete.status = Status::kOkBatch;
  complete.batch_count = 3;
  complete.batch_results = {1, 2, 0};
  const Response decoded = decode_response(encode_response(complete));
  EXPECT_EQ(decoded.batch_count, 3u);
  EXPECT_EQ(decoded.batch_results, complete.batch_results);
  EXPECT_EQ(decoded.error, ErrorCode::kNone);

  // Partial outcome: the error tail travels only when the applied
  // prefix is shorter than the request.
  Response partial;
  partial.status = Status::kOkBatch;
  partial.batch_count = 5;
  partial.batch_results = {1, 0};
  partial.error = ErrorCode::kRejected;
  partial.message = "no such participant";
  const Response half = decode_response(encode_response(partial));
  EXPECT_EQ(half.batch_count, 5u);
  EXPECT_EQ(half.batch_results, partial.batch_results);
  EXPECT_EQ(half.error, ErrorCode::kRejected);
  EXPECT_EQ(half.message, "no such participant");
}

TEST(Protocol, ServerStatsResponsesRoundTrip) {
  Response response;
  response.status = Status::kOkServerStats;
  response.server_stats = {4, 10, 9, 12345, 1, 2, 3, 777, 42, 99, 7};
  response.server_stats.stats_seq = 31337;  // restart-detection counter
  const ServerStatsBody decoded =
      decode_response(encode_response(response)).server_stats;
  EXPECT_EQ(decoded, response.server_stats);
  EXPECT_EQ(decoded.stats_seq, 31337u);
}

TEST(Protocol, ShardMapResponsesRoundTrip) {
  Response response;
  response.status = Status::kOkShardMap;
  response.shard_map.campaigns = 16;
  response.shard_map.shards = {{"127.0.0.1:7431", 1, 0},
                               {"127.0.0.1:7432", 0, 3}};
  const Response decoded = decode_response(encode_response(response));
  EXPECT_EQ(decoded.status, Status::kOkShardMap);
  EXPECT_EQ(decoded.shard_map, response.shard_map);
}

TEST(Protocol, ShardMapDecoderBoundsShardCountAgainstPayload) {
  Response response;
  response.status = Status::kOkShardMap;
  response.shard_map.campaigns = 4;
  response.shard_map.shards = {{"127.0.0.1:7431", 1, 0}};
  std::string bytes = encode_response(response);
  // Inflate the shard-count field (LE32 after status + campaigns) far
  // beyond the remaining payload: the decoder must throw, not allocate.
  bytes[5] = '\xff';
  bytes[6] = '\xff';
  EXPECT_THROW(decode_response(bytes), ProtocolError);
}

TEST(Protocol, EventBatchDecoderRejectsCountMismatchAndBadKind) {
  Request request;
  request.type = MsgType::kEventBatch;
  request.batch = {{BatchEvent::kContribute, 7, 1.0}};
  const std::string good = encode_request(request);
  // Count says one event but the body carries none.
  EXPECT_THROW(decode_request(good.substr(0, 9)), ProtocolError);
  // Extra bytes beyond count * kBatchEventWireBytes.
  EXPECT_THROW(decode_request(good + "x"), ProtocolError);
  // Unknown event kind byte (first byte after campaign + count).
  std::string bad_kind = good;
  bad_kind[9] = 2;
  EXPECT_THROW(decode_request(bad_kind), ProtocolError);
}

// --- Endpoint parsing ------------------------------------------------

TEST(Endpoint, ParsesHostPortAndRejectsAnythingElse) {
  const Endpoint good = parse_endpoint("127.0.0.1:7431");
  EXPECT_EQ(good.host, "127.0.0.1");
  EXPECT_EQ(good.port, 7431);
  EXPECT_EQ(parse_endpoint("localhost:1").port, 1);
  EXPECT_EQ(parse_endpoint("10.0.0.2:65535").port, 65535);
  const char* const rejected[] = {
      "127.0.0.1",        // missing colon
      "",                 // nothing at all
      ":7431",            // empty host
      "127.0.0.1:",       // empty port
      "127.0.0.1:7431x",  // trailing junk
      "127.0.0.1:abc",    // not a number
      "127.0.0.1:0",      // out of range
      "127.0.0.1:65536",  // out of range
      "127.0.0.1:+80",    // a sign is not a digit
      "127.0.0.1: 80",    // neither is a space
      "127.0.0.1:99999999999999999999",
  };
  for (const char* text : rejected) {
    try {
      parse_endpoint(text);
      ADD_FAILURE() << "accepted '" << text << "'";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(std::string("'") + text + "'"),
                std::string::npos)
          << "the message names the input: " << error.what();
    }
  }
}

// --- SPSC ring unit tests -------------------------------------------

TEST(SpscRing, FifoOrderWrapAroundAndFullness) {
  SpscRing<int> ring(3);  // rounds up to the next power of two
  EXPECT_EQ(ring.capacity(), 4u);
  int out = 0;
  EXPECT_TRUE(ring.empty());
  EXPECT_FALSE(ring.pop(&out));
  // Several laps around the buffer: indices keep wrapping cleanly.
  int next = 0;
  for (int lap = 0; lap < 5; ++lap) {
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE(ring.push(next + i));
    }
    EXPECT_FALSE(ring.push(999));  // full: the item is rejected
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(ring.pop(&out));
      EXPECT_EQ(out, next + i);
    }
    next += 4;
    EXPECT_TRUE(ring.empty());
  }
}

TEST(SpscRing, TwoThreadHandoffPreservesEverySlot) {
  SpscRing<std::uint64_t> ring(64);
  constexpr std::uint64_t kItems = 200000;
  std::thread producer([&ring] {
    for (std::uint64_t i = 0; i < kItems; ++i) {
      std::uint64_t item = i;
      while (!ring.push(std::move(item))) {
      }
    }
  });
  std::uint64_t expected = 0;
  while (expected < kItems) {
    std::uint64_t got = 0;
    if (ring.pop(&got)) {
      ASSERT_EQ(got, expected);
      ++expected;
    }
  }
  producer.join();
  EXPECT_TRUE(ring.empty());
}

// --- The event loop alone ------------------------------------------

/// Answers every frame with a plain OK at once.
class OkHandler final : public LoopHandler {
 public:
  void on_frame(Session& session, std::uint64_t seq,
                std::string_view /*payload*/) override {
    loop->deliver(session, seq, Response{});
  }
  EventLoop* loop = nullptr;
};

TEST(EventLoopInterest, RoundTripsLeaveTheRegisteredMaskAlone) {
  // A response flushed in the pass that produced it leaves the session
  // wanting EPOLLIN only, the mask accept registered with EPOLL_CTL_ADD,
  // so no round trip issues an EPOLL_CTL_MOD: the interest-update count
  // stays at its post-accept value, 0.
  OkHandler handler;
  EventLoop loop(handler, EventLoop::Options{});
  handler.loop = &loop;
  std::thread thread([&] { loop.run(); });
  constexpr int kRoundTrips = 200;
  int answered = 0;
  {
    Client client("127.0.0.1", loop.port());
    for (int i = 0; i < kRoundTrips; ++i) {
      client.send_request({MsgType::kStats, 0});
      answered += client.read_response().status == Status::kOk;
    }
  }  // the client hangs up: its session closes with EPOLL_CTL_DEL
  for (int attempt = 0;
       attempt < 2000 && loop.counter(EventLoop::kSessionsClosed) == 0;
       ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  loop.request_drain();
  thread.join();
  EXPECT_EQ(answered, kRoundTrips);
  EXPECT_EQ(loop.counter(EventLoop::kSessionsClosed), 1u);
  EXPECT_EQ(loop.counter(EventLoop::kResponsesReleased),
            static_cast<std::uint64_t>(kRoundTrips));
  EXPECT_EQ(loop.counter(EventLoop::kInterestUpdates), 0u);
}

// --- Server fixture -------------------------------------------------

class NetTest : public ::testing::Test {
 protected:
  ~NetTest() override { stop(); }

  /// Boots a server on an ephemeral loopback port.
  void start(const Mechanism& mechanism, ServerConfig config = {}) {
    config.port = 0;
    server_ = std::make_unique<Server>(mechanism, std::move(config));
    loop_ = std::thread([this] { server_->run(); });
  }

  void stop() {
    if (server_ != nullptr && loop_.joinable()) {
      server_->request_shutdown();
      loop_.join();
    }
  }

  Client connect() { return Client("127.0.0.1", server_->port()); }

  std::unique_ptr<Server> server_;
  std::thread loop_;
};

enum class FrontEnd { kServer, kRouter };

/// Runs a transport test against the server directly (kServer) or
/// through a one-shard Router in front of it (kRouter). The session
/// limits under test (idle timeout, write-buffer mark, reactor count)
/// apply to the front end the client talks to.
class FrontEndTest : public NetTest,
                     public ::testing::WithParamInterface<FrontEnd> {
 protected:
  ~FrontEndTest() override { stop_router(); }

  void start_front(const Mechanism& mechanism, ServerConfig config = {}) {
    if (GetParam() == FrontEnd::kServer) {
      start(mechanism, std::move(config));
      return;
    }
    ServerConfig worker;
    worker.campaigns = config.campaigns;
    worker.reactors = config.reactors;
    start(mechanism, worker);
    router::RouterConfig front;
    front.campaigns = static_cast<std::uint32_t>(config.campaigns);
    front.shards = {"127.0.0.1:" + std::to_string(server_->port())};
    front.reactors = config.reactors;
    front.idle_timeout_seconds = config.idle_timeout_seconds;
    front.max_write_buffer = config.max_write_buffer;
    router_ = std::make_unique<router::Router>(front);
    router_thread_ = std::thread([this] { router_->run(); });
    // Backends are dialled once run() starts; wait for the link.
    for (int attempt = 0; attempt < 1000; ++attempt) {
      if (connect().shard_map().shards.at(0).healthy) {
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    FAIL() << "the router never reached its shard";
  }

  Client connect() {
    return Client("127.0.0.1",
                  router_ != nullptr ? router_->port() : server_->port());
  }

  /// The front end's counters of interest, exact after stopping it.
  struct FrontCounters {
    std::uint64_t sessions_timed_out = 0;
    std::uint64_t backpressure_stalls = 0;
  };
  FrontCounters stop_front() {
    if (router_ != nullptr) {
      stop_router();
      const router::RouterCounters c = router_->counters();
      return {c.sessions_timed_out, c.backpressure_stalls};
    }
    stop();
    const ServerStatsBody c = server_->counters();
    return {c.sessions_timed_out, c.backpressure_stalls};
  }

  void stop_router() {
    if (router_ != nullptr && router_thread_.joinable()) {
      router_->request_shutdown();
      router_thread_.join();
    }
  }

  std::unique_ptr<router::Router> router_;
  std::thread router_thread_;
};

INSTANTIATE_TEST_SUITE_P(
    FrontEnds, FrontEndTest,
    ::testing::Values(FrontEnd::kServer, FrontEnd::kRouter),
    [](const ::testing::TestParamInfo<FrontEnd>& info) {
      return info.param == FrontEnd::kServer ? "Server" : "Router";
    });

/// Applies the seeded random stream from server_test.cpp through
/// `apply`, which receives (referrer-or-participant, amount, is_join)
/// and returns the assigned id for joins.
template <typename Apply>
void drive_workload(std::uint64_t seed, int events, Apply&& apply) {
  Rng rng(seed);
  std::size_t n = 0;
  for (int event = 0; event < events; ++event) {
    if (n == 0 || rng.bernoulli(0.65)) {
      const NodeId parent = (n == 0 || rng.bernoulli(0.1))
                                ? kRoot
                                : static_cast<NodeId>(1 + rng.index(n));
      apply(parent, rng.uniform(0.0, 3.0), true);
      ++n;
    } else {
      apply(static_cast<NodeId>(1 + rng.index(n)), rng.uniform(0.0, 2.0),
            false);
    }
  }
}

// --- Acceptance: served == in-process, bit for bit ------------------

class LoopbackEquivalence
    : public NetTest,
      public ::testing::WithParamInterface<MechanismKind> {};

TEST_P(LoopbackEquivalence, ServedMatchesInProcessBitForBit) {
  const MechanismPtr mechanism = make_default(GetParam());
  start(*mechanism);
  Client client = connect();

  RecordingService reference(*mechanism);
  drive_workload(61, 300, [&](NodeId node, double amount, bool is_join) {
    if (is_join) {
      const NodeId served = client.join(0, node, amount);
      const NodeId local = reference.join(node, amount);
      ASSERT_EQ(served, local);
    } else {
      client.contribute(0, node, amount);
      reference.contribute(node, amount);
    }
  });

  // The reward vector crosses the wire as raw IEEE-754 bits: equality
  // here is exact, not approximate.
  const std::vector<double> served = client.rewards(0);
  const RewardVector& local = reference.service().rewards();
  ASSERT_EQ(served.size(), local.size());
  for (std::size_t u = 0; u < served.size(); ++u) {
    EXPECT_EQ(served[u], local[u]) << "node " << u;
  }
  EXPECT_EQ(client.reward(0, 1), reference.service().reward(1));

  // Pre-payout audit: served and local agree, and the incremental fast
  // path has not diverged from a batch recompute.
  const double served_audit = client.audit(0);
  EXPECT_EQ(served_audit, reference.service().audit());
  EXPECT_LT(served_audit, 1e-9);

  const StatsBody stats = client.stats(0);
  EXPECT_EQ(stats.events, reference.service().events_applied());
  EXPECT_EQ(stats.participants,
            reference.service().tree().participant_count());
  EXPECT_TRUE(stats.incremental);
}

/// A mechanism's name as a test-name piece ("CDRM-1" -> "CDRM1").
std::string mechanism_case_name(
    const ::testing::TestParamInfo<MechanismKind>& info) {
  std::string name = make_default(info.param)->name();
  std::erase(name, '-');
  return name;
}

INSTANTIATE_TEST_SUITE_P(Mechanisms, LoopbackEquivalence,
                         ::testing::Values(MechanismKind::kGeometric,
                                           MechanismKind::kCdrmReciprocal,
                                           MechanismKind::kTdrm),
                         mechanism_case_name);

// --- Routing, errors, robustness ------------------------------------

TEST_F(NetTest, PayoutOverTheWireMaterializesNoServedVector) {
  // REWARDS is framed straight from the aggregate columns, AUDIT folds
  // the served values block by block and STATS sums them (CDRM-1 has no
  // O(1) total): after a payout, no campaign holds a reward vector.
  // Two reactors, so one campaign's frames cross the reactor ring.
  const MechanismPtr mechanism = make_default(MechanismKind::kCdrmReciprocal);
  ServerConfig config;
  config.campaigns = 2;
  config.reactors = 2;
  start(*mechanism, config);
  Client client = connect();
  std::vector<std::unique_ptr<RecordingService>> reference;
  for (std::uint32_t c = 0; c < 2; ++c) {
    reference.push_back(std::make_unique<RecordingService>(*mechanism));
    drive_workload(70 + c, 9000, [&](NodeId node, double amount, bool join) {
      if (join) {
        reference[c]->join(node, amount);
      } else {
        reference[c]->contribute(node, amount);
      }
    });
    std::vector<BatchEvent> events;
    drive_workload(70 + c, 9000, [&](NodeId node, double amount, bool join) {
      events.push_back({join ? BatchEvent::kJoin : BatchEvent::kContribute,
                        node, amount});
    });
    ASSERT_TRUE(client.send_events(c, events).complete());
  }
  for (int round = 0; round < 2; ++round) {
    for (std::uint32_t c = 0; c < 2; ++c) {
      const RecordingService& local = *reference[c];
      expect_same_bits(client.rewards(c), local.service().rewards());
      EXPECT_EQ(client.audit(c), local.service().audit());
      const StatsBody stats = client.stats(c);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(stats.total_reward),
                std::bit_cast<std::uint64_t>(
                    total_reward(local.service().rewards())));
    }
  }
  stop();
  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_EQ(server_->campaign(c).service().materialized_rewards(), 0u)
        << "campaign " << c << " kept a served vector";
  }
}

TEST_F(NetTest, RoutesCampaignsIndependently) {
  const MechanismPtr mechanism = make_default(MechanismKind::kGeometric);
  ServerConfig config;
  config.campaigns = 3;
  start(*mechanism, config);
  Client client = connect();
  // Different growth per campaign; ids restart from 1 in each.
  EXPECT_EQ(client.join(0, kRoot, 1.0), 1u);
  EXPECT_EQ(client.join(1, kRoot, 2.0), 1u);
  EXPECT_EQ(client.join(1, 1, 4.0), 2u);
  EXPECT_EQ(client.stats(0).participants, 1u);
  EXPECT_EQ(client.stats(1).participants, 2u);
  EXPECT_EQ(client.stats(2).participants, 0u);
}

TEST_F(NetTest, DomainErrorsBecomeRejectedResponses) {
  const MechanismPtr mechanism = make_default(MechanismKind::kGeometric);
  start(*mechanism);
  Client client = connect();
  try {
    client.contribute(0, 42, 1.0);  // participant does not exist
    FAIL() << "expected ServiceError";
  } catch (const ServiceError& error) {
    EXPECT_EQ(error.code, ErrorCode::kRejected);
  }
  try {
    client.join(99, kRoot, 1.0);  // campaign does not exist
    FAIL() << "expected ServiceError";
  } catch (const ServiceError& error) {
    EXPECT_EQ(error.code, ErrorCode::kUnknownCampaign);
  }
  EXPECT_THROW(client.join(0, kRoot, -2.0), ServiceError);
  // The session survives all three rejections.
  EXPECT_EQ(client.join(0, kRoot, 1.0), 1u);
}

TEST_F(NetTest, MalformedPayloadGetsErrorFrameAndSessionSurvives) {
  const MechanismPtr mechanism = make_default(MechanismKind::kGeometric);
  start(*mechanism);
  Client client = connect();
  client.send_bytes(frame("\x7fgarbage"));  // unknown message type
  const Response response = client.read_response();
  EXPECT_EQ(response.status, Status::kError);
  EXPECT_EQ(response.error, ErrorCode::kBadRequest);
  // Framing stayed intact: the next request works.
  EXPECT_EQ(client.join(0, kRoot, 1.0), 1u);
}

TEST_P(FrontEndTest, OversizedFrameGetsErrorThenClose) {
  const MechanismPtr mechanism = make_default(MechanismKind::kGeometric);
  start_front(*mechanism);
  Client client = connect();
  const std::uint32_t length = kMaxFrameBytes + 7;
  char prefix[4];
  for (int i = 0; i < 4; ++i) {
    prefix[i] = static_cast<char>((length >> (8 * i)) & 0xff);
  }
  client.send_bytes(std::string_view(prefix, sizeof(prefix)));
  const Response response = client.read_response();
  EXPECT_EQ(response.status, Status::kError);
  EXPECT_EQ(response.error, ErrorCode::kBadRequest);
  // The stream is untrustworthy, so the server hangs up.
  EXPECT_THROW(client.read_response(), std::runtime_error);
  // ...but keeps serving everyone else.
  Client fresh = connect();
  EXPECT_EQ(fresh.join(0, kRoot, 1.0), 1u);
}

TEST_P(FrontEndTest, MidFrameDisconnectLeavesServerHealthy) {
  const MechanismPtr mechanism = make_default(MechanismKind::kGeometric);
  start_front(*mechanism);
  {
    Client client = connect();
    const std::string full = frame(encode_request(
        {MsgType::kJoin, 0, kRoot, 1.0}));
    client.send_bytes(
        std::string_view(full.data(), full.size() / 2));
    client.shutdown_write();
    // Destructor closes the socket with half a frame delivered.
  }
  Client fresh = connect();
  EXPECT_EQ(fresh.stats(0).participants, 0u)
      << "partial frame must not have been applied";
  EXPECT_EQ(fresh.join(0, kRoot, 1.0), 1u);
}

TEST_F(NetTest, PipelinedBurstIsAnsweredInOrder) {
  // A client that sends a large burst before reading anything forces
  // the server through its write-buffer / EPOLLOUT path: the responses
  // cannot all fit in the socket buffer while we are not reading.
  const MechanismPtr mechanism = make_default(MechanismKind::kGeometric);
  ServerConfig config;
  config.max_write_buffer = 64 * 1024;  // low mark: force backpressure
  start(*mechanism, config);
  Client client = connect();
  ASSERT_EQ(client.join(0, kRoot, 1.0), 1u);
  for (int i = 0; i < 200; ++i) {
    client.send_request({MsgType::kContribute, 0, 1, 0.5});
    client.send_request({MsgType::kRewardsBatch, 0, 0, 0.0});
  }
  double last_reward = 0.0;
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(client.read_response().status, Status::kOk);
    const Response batch = client.read_response();
    ASSERT_EQ(batch.status, Status::kOkVector);
    ASSERT_EQ(batch.rewards.size(), 2u);
    // Monotone in the pipelined order: responses were not reordered.
    EXPECT_GT(batch.rewards[1], last_reward);
    last_reward = batch.rewards[1];
  }
  EXPECT_EQ(client.stats(0).events, 201u);
}

TEST_P(FrontEndTest, IdleSessionsAreClosed) {
  const MechanismPtr mechanism = make_default(MechanismKind::kGeometric);
  ServerConfig config;
  config.idle_timeout_seconds = 0.2;
  start_front(*mechanism, config);
  Client client = connect();
  EXPECT_EQ(client.join(0, kRoot, 1.0), 1u);
  // No traffic: the server must hang up on us within a few sweeps.
  EXPECT_THROW(client.read_response(), std::runtime_error);
  // Counters are only synchronized once run() has returned.
  EXPECT_GE(stop_front().sessions_timed_out, 1u);
}

TEST_F(NetTest, RemoteShutdownCanBeDisabled) {
  const MechanismPtr mechanism = make_default(MechanismKind::kGeometric);
  ServerConfig config;
  config.allow_remote_shutdown = false;
  start(*mechanism, config);
  Client client = connect();
  EXPECT_THROW(client.shutdown_server(), ServiceError);
  EXPECT_EQ(client.join(0, kRoot, 1.0), 1u);  // still serving
}

TEST_F(NetTest, ShutdownFrameDrainsTheServer) {
  const MechanismPtr mechanism = make_default(MechanismKind::kGeometric);
  start(*mechanism);
  Client client = connect();
  EXPECT_EQ(client.join(0, kRoot, 2.0), 1u);
  client.shutdown_server();  // blocks until the OK frame arrives
  loop_.join();
  EXPECT_EQ(server_->campaign(0).service().events_applied(), 1u);
}

// --- EVENT_BATCH semantics ------------------------------------------

TEST_F(NetTest, EventBatchAppliesThePrefixUpToTheFirstRejection) {
  const MechanismPtr mechanism = make_default(MechanismKind::kGeometric);
  start(*mechanism);
  Client client = connect();
  const std::vector<BatchEvent> batch = {
      {BatchEvent::kJoin, kRoot, 1.0},     // -> id 1
      {BatchEvent::kJoin, 1, 2.0},         // -> id 2
      {BatchEvent::kContribute, 2, 0.5},   // ok
      {BatchEvent::kContribute, 99, 1.0},  // no such participant
      {BatchEvent::kJoin, kRoot, 4.0},     // must NOT be applied
  };
  const BatchResult result = client.send_events(0, batch);
  EXPECT_EQ(result.requested, 5u);
  ASSERT_EQ(result.results.size(), 3u);
  EXPECT_FALSE(result.complete());
  EXPECT_EQ(result.results[0], 1u);
  EXPECT_EQ(result.results[1], 2u);
  EXPECT_EQ(result.results[2], 0u);
  EXPECT_EQ(result.error, ErrorCode::kRejected);
  EXPECT_FALSE(result.message.empty());
  // Server state is exactly the applied prefix — the rejected event and
  // everything after it left no trace.
  EXPECT_EQ(client.stats(0).participants, 2u);
  EXPECT_EQ(client.stats(0).events, 3u);
  // The session survives and id assignment continues from the prefix.
  const std::vector<BatchEvent> follow = {{BatchEvent::kJoin, 1, 1.0}};
  const BatchResult more = client.send_events(0, follow);
  EXPECT_TRUE(more.complete());
  ASSERT_EQ(more.results.size(), 1u);
  EXPECT_EQ(more.results[0], 3u);
}

TEST_F(NetTest, EventBatchMatchesPerFrameBitForBit) {
  // The same events through EVENT_BATCH frames and through per-event
  // frames must land on the same reward bits: batching is a wire-path
  // optimization, never a semantic change.
  const MechanismPtr mechanism = make_default(MechanismKind::kTdrm);
  std::vector<BatchEvent> events;
  drive_workload(83, 250, [&](NodeId node, double amount, bool is_join) {
    events.push_back({is_join ? BatchEvent::kJoin : BatchEvent::kContribute,
                      node, amount});
  });

  start(*mechanism);
  {
    Client client = connect();
    for (const BatchEvent& event : events) {
      if (event.kind == BatchEvent::kJoin) {
        client.join(0, static_cast<NodeId>(event.node), event.amount);
      } else {
        client.contribute(0, static_cast<NodeId>(event.node),
                          event.amount);
      }
    }
  }
  Client probe = connect();
  const std::vector<double> per_frame = probe.rewards(0);
  stop();

  start(*mechanism);
  Client batched = connect();
  // Feed the same stream in uneven slices to cross flush boundaries.
  std::size_t at = 0, slice = 1;
  while (at < events.size()) {
    const std::size_t take = std::min(slice, events.size() - at);
    const BatchResult result = batched.send_events(
        0, std::span<const BatchEvent>(events.data() + at, take));
    ASSERT_TRUE(result.complete());
    at += take;
    slice = slice % 64 + 7;
  }
  EXPECT_EQ(batched.rewards(0), per_frame);
  EXPECT_EQ(batched.stats(0).events, events.size());
}

TEST_F(NetTest, EventBatchToUnknownCampaignIsRejectedInBand) {
  const MechanismPtr mechanism = make_default(MechanismKind::kGeometric);
  start(*mechanism);
  Client client = connect();
  const std::vector<BatchEvent> batch = {{BatchEvent::kJoin, kRoot, 1.0}};
  try {
    client.send_events(7, batch);
    FAIL() << "expected ServiceError";
  } catch (const ServiceError& error) {
    EXPECT_EQ(error.code, ErrorCode::kUnknownCampaign);
  }
  EXPECT_EQ(client.join(0, kRoot, 1.0), 1u);  // session intact
}

TEST_F(NetTest, MidBatchDisconnectAppliesNothing) {
  const MechanismPtr mechanism = make_default(MechanismKind::kGeometric);
  start(*mechanism);
  {
    Client client = connect();
    Request request;
    request.type = MsgType::kEventBatch;
    for (int i = 0; i < 100; ++i) {
      request.batch.push_back({BatchEvent::kJoin, kRoot, 1.0});
    }
    const std::string full = frame(encode_request(request));
    // Half an EVENT_BATCH frame, then a hangup mid-stream.
    client.send_bytes(std::string_view(full.data(), full.size() / 2));
    client.shutdown_write();
  }
  Client fresh = connect();
  EXPECT_EQ(fresh.stats(0).participants, 0u)
      << "a partial batch frame must be discarded whole";
  EXPECT_EQ(fresh.stats(0).events, 0u);
  EXPECT_EQ(fresh.join(0, kRoot, 1.0), 1u);
}

TEST_P(FrontEndTest, PipelinedBatchesUnderBackpressureStayOrdered) {
  // EVENT_BATCH frames interleaved with full-vector queries, pipelined
  // without reading, against a low write-buffer mark and two reactors:
  // the responses must come back in request order even while sessions
  // are paused for backpressure and batches cross reactors.
  const MechanismPtr mechanism = make_default(MechanismKind::kGeometric);
  ServerConfig config;
  config.max_write_buffer = 64 * 1024;
  config.reactors = 2;
  start_front(*mechanism, config);
  Client client = connect();

  // A wide campaign so every REWARDS_BATCH response is ~16 KB.
  std::vector<BatchEvent> seed(2000, {BatchEvent::kJoin, kRoot, 1.0});
  ASSERT_TRUE(client.send_events(0, seed).complete());

  const std::vector<BatchEvent> bump = {
      {BatchEvent::kContribute, 1, 0.5},
      {BatchEvent::kContribute, 1, 0.25},
  };
  Request batch_request;
  batch_request.type = MsgType::kEventBatch;
  batch_request.campaign = 0;
  batch_request.batch = bump;
  constexpr int kRounds = 100;
  for (int i = 0; i < kRounds; ++i) {
    client.send_request(batch_request);
    client.send_request({MsgType::kRewardsBatch, 0, 0, 0.0});
  }
  double last_reward = 0.0;
  for (int i = 0; i < kRounds; ++i) {
    const Response ack = client.read_response();
    ASSERT_EQ(ack.status, Status::kOkBatch);
    EXPECT_EQ(ack.batch_results, std::vector<std::uint64_t>({0, 0}));
    const Response vector = client.read_response();
    ASSERT_EQ(vector.status, Status::kOkVector);
    ASSERT_EQ(vector.rewards.size(), 2001u);
    // Strictly monotone in pipeline order: no reordering, no skipped
    // flush.
    EXPECT_GT(vector.rewards[1], last_reward);
    last_reward = vector.rewards[1];
  }
  EXPECT_EQ(client.stats(0).events,
            2000u + 2u * static_cast<std::uint64_t>(kRounds));
  EXPECT_GT(stop_front().backpressure_stalls, 0u)
      << "the test must actually exercise the pause/resume path";
}

// --- Multi-reactor determinism and ordering -------------------------

/// One scripted event against a known campaign, with the id the server
/// must assign when it is a join (ids are sequential per campaign).
struct ScriptedEvent {
  std::uint32_t campaign = 0;
  BatchEvent event;
  NodeId expected_id = 0;
};

std::vector<ScriptedEvent> scripted_workload(std::uint64_t seed,
                                             int events,
                                             std::uint32_t campaigns) {
  Rng rng(seed);
  std::vector<std::size_t> n(campaigns, 0);
  std::vector<ScriptedEvent> script;
  script.reserve(static_cast<std::size_t>(events));
  for (int i = 0; i < events; ++i) {
    ScriptedEvent entry;
    entry.campaign = static_cast<std::uint32_t>(rng.index(campaigns));
    std::size_t& size = n[entry.campaign];
    if (size == 0 || rng.bernoulli(0.6)) {
      const NodeId parent = (size == 0 || rng.bernoulli(0.15))
                                ? kRoot
                                : static_cast<NodeId>(1 + rng.index(size));
      entry.event = {BatchEvent::kJoin, parent, rng.uniform(0.0, 3.0)};
      entry.expected_id = static_cast<NodeId>(++size);
    } else {
      entry.event = {BatchEvent::kContribute,
                     static_cast<NodeId>(1 + rng.index(size)),
                     rng.uniform(0.0, 2.0)};
    }
    script.push_back(entry);
  }
  return script;
}

enum class DriveMode { kSync, kPipelined, kBatched };

/// Replays `script` over one connection in the given wire style,
/// asserting every join id along the way.
void replay_script(Client& client,
                   const std::vector<ScriptedEvent>& script,
                   DriveMode mode) {
  switch (mode) {
    case DriveMode::kSync:
      for (const ScriptedEvent& entry : script) {
        if (entry.event.kind == BatchEvent::kJoin) {
          ASSERT_EQ(client.join(entry.campaign,
                                static_cast<NodeId>(entry.event.node),
                                entry.event.amount),
                    entry.expected_id);
        } else {
          client.contribute(entry.campaign,
                            static_cast<NodeId>(entry.event.node),
                            entry.event.amount);
        }
      }
      break;
    case DriveMode::kPipelined: {
      for (const ScriptedEvent& entry : script) {
        Request request;
        request.type = entry.event.kind == BatchEvent::kJoin
                           ? MsgType::kJoin
                           : MsgType::kContribute;
        request.campaign = entry.campaign;
        request.node = entry.event.node;
        request.amount = entry.event.amount;
        client.send_request(request);
      }
      for (const ScriptedEvent& entry : script) {
        const Response response = client.read_response();
        if (entry.event.kind == BatchEvent::kJoin) {
          ASSERT_EQ(response.status, Status::kOkId);
          ASSERT_EQ(response.id, entry.expected_id);
        } else {
          ASSERT_EQ(response.status, Status::kOk);
        }
      }
      break;
    }
    case DriveMode::kBatched: {
      // Maximal same-campaign runs become EVENT_BATCH frames.
      std::size_t at = 0;
      while (at < script.size()) {
        std::size_t end = at + 1;
        while (end < script.size() &&
               script[end].campaign == script[at].campaign) {
          ++end;
        }
        std::vector<BatchEvent> batch;
        batch.reserve(end - at);
        for (std::size_t i = at; i < end; ++i) {
          batch.push_back(script[i].event);
        }
        const BatchResult result =
            client.send_events(script[at].campaign, batch);
        ASSERT_TRUE(result.complete());
        for (std::size_t i = at; i < end; ++i) {
          ASSERT_EQ(result.results[i - at], script[i].expected_id);
        }
        at = end;
      }
      break;
    }
  }
}

class ReactorInvariance
    : public NetTest,
      public ::testing::WithParamInterface<MechanismKind> {};

TEST_P(ReactorInvariance, RewardBitsIgnoreReactorCountAndWireStyle) {
  // The determinism contract of docs/protocol.md: reactor count,
  // pipelining and EVENT_BATCH framing change throughput, never reward
  // bits. Every (reactors, wire style) cell must produce reward vectors
  // that equal the 1-reactor synchronous baseline with operator== on
  // raw doubles.
  const MechanismPtr mechanism = make_default(GetParam());
  constexpr std::uint32_t kCampaigns = 5;
  const std::vector<ScriptedEvent> script =
      scripted_workload(97, 400, kCampaigns);

  std::vector<std::vector<double>> baseline;
  for (const std::size_t reactors : {std::size_t{1}, std::size_t{2},
                                     std::size_t{8}}) {
    for (const DriveMode mode : {DriveMode::kSync, DriveMode::kPipelined,
                                 DriveMode::kBatched}) {
      ServerConfig config;
      config.campaigns = kCampaigns;
      config.reactors = reactors;
      start(*mechanism, config);
      Client client = connect();
      replay_script(client, script, mode);
      std::vector<std::vector<double>> got;
      for (std::uint32_t c = 0; c < kCampaigns; ++c) {
        got.push_back(client.rewards(c));
        EXPECT_LT(client.audit(c), 1e-9);
      }
      stop();
      if (baseline.empty()) {
        baseline = std::move(got);
      } else {
        EXPECT_EQ(got, baseline)
            << "reactors=" << reactors << " mode="
            << static_cast<int>(mode);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Mechanisms, ReactorInvariance,
                         ::testing::Values(MechanismKind::kGeometric,
                                           MechanismKind::kCdrmReciprocal,
                                           MechanismKind::kTdrm),
                         mechanism_case_name);

TEST_F(NetTest, CrossReactorResponsesStayInRequestOrder) {
  // One connection touching four campaigns behind two reactors: its
  // reactor applies every campaign's requests under each campaign's
  // lock, and the per-session sequencer must release every response in
  // exact request order.
  const MechanismPtr mechanism = make_default(MechanismKind::kGeometric);
  ServerConfig config;
  config.campaigns = 4;
  config.reactors = 2;
  start(*mechanism, config);
  Client client = connect();
  for (std::uint32_t c = 0; c < 4; ++c) {
    ASSERT_EQ(client.join(c, kRoot, 1.0), 1u);
  }
  constexpr int kRounds = 120;
  for (int i = 0; i < kRounds; ++i) {
    for (std::uint32_t c = 0; c < 4; ++c) {
      client.send_request({MsgType::kContribute, c, 1, 0.25});
    }
    client.send_request(
        {MsgType::kStats, static_cast<std::uint32_t>(i % 4), 0, 0.0});
  }
  for (int i = 0; i < kRounds; ++i) {
    for (std::uint32_t c = 0; c < 4; ++c) {
      ASSERT_EQ(client.read_response().status, Status::kOk)
          << "round " << i << " campaign " << c;
    }
    const Response stats = client.read_response();
    ASSERT_EQ(stats.status, Status::kOkStats);
    // Campaign i%4 has its join plus one contribution per completed
    // round; an out-of-order release would break this exact count.
    EXPECT_EQ(stats.stats.events, static_cast<std::uint64_t>(i) + 2)
        << "round " << i;
  }
  stop();
  EXPECT_EQ(server_->counters().requests_forwarded, 0u);
}

TEST_F(NetTest, SharedCampaignAcrossReactorsAppliesEveryEventOnce) {
  // Six classic clients on one campaign behind two reactors: the kernel
  // spreads the sessions over both listeners, so both reactors apply
  // JOINs and CONTRIBUTEs to the same campaign and read it, each under
  // the campaign's lock. Every event must land exactly once, join ids
  // must be unique and contiguous, the served state must audit to
  // zero, and the WAL (appended under the same lock) must recover it
  // bit for bit.
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "itree_net_test_shared_campaign";
  fs::remove_all(dir);
  const MechanismPtr mechanism = make_default(MechanismKind::kGeometric);
  ServerConfig config;
  config.campaigns = 1;
  config.reactors = 2;
  config.storage.data_dir = dir.string();
  config.storage.mechanism_name = "geometric";
  start(*mechanism, config);

  constexpr int kClients = 6;
  constexpr int kRequests = 400;
  std::vector<std::vector<NodeId>> joined(kClients);
  std::vector<std::uint64_t> events(kClients, 0);
  std::vector<std::string> errors(kClients);
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      try {
        Client client = connect();
        Rng rng(900 + static_cast<std::uint64_t>(t));
        std::vector<NodeId>& mine = joined[t];
        for (int i = 0; i < kRequests; ++i) {
          const double draw = rng.uniform(0.0, 1.0);
          if (mine.empty() || draw < 0.4) {
            const NodeId referrer = mine.empty() || rng.bernoulli(0.2)
                                        ? kRoot
                                        : mine[rng.index(mine.size())];
            mine.push_back(client.join(0, referrer, 0.5));
            ++events[t];
          } else if (draw < 0.7) {
            client.contribute(0, mine[rng.index(mine.size())], 0.25);
            ++events[t];
          } else if (draw < 0.9) {
            if (!(client.reward(0, mine[rng.index(mine.size())]) >= 0.0)) {
              throw std::runtime_error("negative reward");
            }
          } else if (client.stats(0).events < events[t]) {
            throw std::runtime_error("STATS missed this session's events");
          }
        }
      } catch (const std::exception& error) {
        errors[t] = error.what();
      }
    });
  }
  for (std::thread& client : clients) {
    client.join();
  }
  std::uint64_t total_events = 0;
  std::vector<NodeId> ids;
  for (int t = 0; t < kClients; ++t) {
    EXPECT_EQ(errors[t], "") << "client " << t;
    total_events += events[t];
    ids.insert(ids.end(), joined[t].begin(), joined[t].end());
  }
  std::sort(ids.begin(), ids.end());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ASSERT_EQ(ids[i], static_cast<NodeId>(i + 1)) << "join ids must be "
                                                     "unique and contiguous";
  }

  Client probe = connect();
  const StatsBody stats = probe.stats(0);
  EXPECT_EQ(stats.events, total_events);
  EXPECT_EQ(stats.participants, ids.size());
  EXPECT_EQ(probe.audit(0), 0.0);
  const std::vector<double> served = probe.rewards(0);
  const storage::RecoveryResult recovered =
      storage::recover_campaigns(*mechanism, 1, dir.string());
  EXPECT_EQ(hex_doubles(recovered.campaigns[0]->service().rewards()),
            hex_doubles(served));
  stop();
  EXPECT_EQ(server_->counters().requests_forwarded, 0u);
  fs::remove_all(dir);
}

TEST_F(NetTest, LiveServerStatsReflectServingWithoutStopping) {
  const MechanismPtr mechanism = make_default(MechanismKind::kGeometric);
  ServerConfig config;
  config.campaigns = 4;
  config.reactors = 2;
  start(*mechanism, config);
  Client client = connect();
  for (std::uint32_t c = 0; c < 4; ++c) {
    ASSERT_EQ(client.join(c, kRoot, 1.0), 1u);
  }
  std::vector<BatchEvent> batch(10, {BatchEvent::kContribute, 1, 0.5});
  ASSERT_TRUE(client.send_events(1, batch).complete());

  const ServerStatsBody stats = client.server_stats();
  EXPECT_EQ(stats.reactors, 2u);
  EXPECT_GE(stats.sessions_accepted, 1u);
  EXPECT_GE(stats.requests_served, 5u);
  EXPECT_EQ(stats.event_batches, 1u);
  EXPECT_GE(stats.events_batched, 14u);  // 4 joins + 10 batched events
  EXPECT_GT(stats.batch_flushes, 0u);
  EXPECT_EQ(stats.protocol_errors, 0u);

  // The probe is live: more traffic, larger counters, same server.
  client.contribute(0, 1, 1.0);
  const ServerStatsBody later = client.server_stats();
  EXPECT_GE(later.requests_served, stats.requests_served + 1);
  // And the summed totals agree with the post-drain counters.
  stop();
  EXPECT_EQ(server_->counters().event_batches, 1u);
}

TEST_F(NetTest, SequentialRequestsPinTheWriteRunCounters) {
  // One reactor and one sequential client, so every request is a tick
  // of its own: each JOIN is a run of one event, the EVENT_BATCH a run
  // of ten, and the REWARD query adds nothing. perfbench's
  // net.events_per_flush is events_batched / batch_flushes.
  const MechanismPtr mechanism = make_default(MechanismKind::kGeometric);
  start(*mechanism);
  Client client = connect();
  for (int i = 0; i < 4; ++i) {
    client.join(0, kRoot, 1.0);
  }
  const std::vector<BatchEvent> batch(10, {BatchEvent::kContribute, 1, 0.5});
  ASSERT_TRUE(client.send_events(0, batch).complete());
  client.reward(0, 1);
  const ServerStatsBody stats = client.server_stats();
  EXPECT_EQ(stats.events_batched, 14u);
  EXPECT_EQ(stats.batch_flushes, 5u);
}

TEST_F(NetTest, PeriodicSnapshotsAcrossReactorsCaptureWholeCampaigns) {
  // A periodic snapshot is taken by whichever reactor's commit finds it
  // due, and it reads every campaign, including one another reactor is
  // applying an EVENT_BATCH to at that moment. Each
  // campaign must be whole whenever no apply() is running: the served
  // state audits below 1e-9 and recovery from the latest periodic snapshot
  // plus the WAL tail reproduces it bit for bit. Under ThreadSanitizer
  // this case also fails if a snapshot writes a campaign's state.
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "itree_net_test_snapshot_reactors";
  fs::remove_all(dir);
  const MechanismPtr mechanism = make_default(MechanismKind::kGeometric);
  ServerConfig config;
  config.campaigns = 2;  // one writer connection each
  config.reactors = 2;
  config.storage.data_dir = dir.string();
  config.storage.snapshot_every = 300;
  config.storage.mechanism_name = "geometric";
  start(*mechanism, config);

  static constexpr std::size_t kFrame = 64;
  static constexpr std::size_t kWindow = 8;  // frames in flight per connection
  static constexpr int kEventsPerCampaign = 12800;
  std::vector<std::thread> writers;
  for (std::uint32_t campaign = 0; campaign < 2; ++campaign) {
    writers.emplace_back([this, campaign] {
      std::vector<BatchEvent> events;
      drive_workload(campaign + 41, kEventsPerCampaign,
                     [&](NodeId node, double amount, bool is_join) {
                       events.push_back({is_join ? BatchEvent::kJoin
                                                 : BatchEvent::kContribute,
                                         node, amount});
                     });
      Client client = connect();
      std::size_t in_flight = 0;
      for (std::size_t at = 0; at < events.size() || in_flight > 0;) {
        if (at < events.size() && in_flight < kWindow) {
          Request request;
          request.type = MsgType::kEventBatch;
          request.campaign = campaign;
          request.batch.assign(
              events.begin() + static_cast<std::ptrdiff_t>(at),
              events.begin() + static_cast<std::ptrdiff_t>(
                                   std::min(at + kFrame, events.size())));
          at += request.batch.size();
          client.send_request(request);
          ++in_flight;
          continue;
        }
        const Response response = client.read_response();
        EXPECT_EQ(response.status, Status::kOkBatch);
        EXPECT_EQ(response.batch_results.size(), kFrame);
        --in_flight;
      }
    });
  }
  for (std::thread& writer : writers) {
    writer.join();
  }

  Client probe = connect();
  std::vector<std::vector<double>> served;
  std::vector<double> audits;
  for (std::uint32_t campaign = 0; campaign < 2; ++campaign) {
    audits.push_back(probe.audit(campaign));
    EXPECT_LT(audits.back(), 1e-9) << "campaign " << campaign;
    served.push_back(probe.rewards(campaign));
  }
  // Every response went out after its tick's commit wrote the records,
  // and the idle server writes nothing more: the directory is stable.
  const storage::RecoveryResult recovered =
      storage::recover_campaigns(*mechanism, 2, dir.string());
  EXPECT_TRUE(recovered.report.used_snapshot);
  for (std::uint32_t campaign = 0; campaign < 2; ++campaign) {
    const RewardService& service = recovered.campaigns[campaign]->service();
    EXPECT_EQ(hex_doubles(service.rewards()), hex_doubles(served[campaign]))
        << "campaign " << campaign;
    EXPECT_EQ(service.audit(), audits[campaign]) << "campaign " << campaign;
  }
  stop();
  EXPECT_GE(server_->storage()->counters().snapshots_written, 20u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace itree::net
