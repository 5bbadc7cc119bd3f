// Primitive tests of the little-endian byte codec (util/le_codec.h)
// that the wire protocol, the WAL and the snapshot image share: the
// byte layout of every scalar, bulk arrays against the scalar loop,
// and the reader's truncation and trailing-byte errors.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "util/le_codec.h"

namespace itree::le {
namespace {

std::string hex(const std::string& bytes) {
  std::string out;
  for (const char c : bytes) {
    static constexpr char kDigits[] = "0123456789abcdef";
    const auto byte = static_cast<std::uint8_t>(c);
    out += kDigits[byte >> 4];
    out += kDigits[byte & 0xf];
  }
  return out;
}

TEST(LeCodec, ScalarsAreLittleEndian) {
  std::string out;
  put_u8(out, 0xab);
  put_u32(out, 0x01020304u);
  put_u64(out, 0x0102030405060708ull);
  put_f64(out, -2.0);  // 0xc000000000000000
  EXPECT_EQ(hex(out), "ab" "04030201" "0807060504030201" "00000000000000c0");

  ByteCount count;
  put_u8(count, 0xab);
  put_u32(count, 1);
  put_u64(count, 1);
  put_f64(count, 1.0);
  EXPECT_EQ(count.size, out.size());

  char bytes[8];
  store(bytes, std::uint32_t{0xdeadbeef});
  EXPECT_EQ(hex(std::string(bytes, 4)), "efbeadde");
  EXPECT_EQ(load<std::uint32_t>(bytes), 0xdeadbeefu);
  store(bytes, std::uint64_t{0x8000000000000001ull});
  EXPECT_EQ(load<std::uint64_t>(bytes), 0x8000000000000001ull);
}

TEST(LeCodec, DoublesTravelAsTheirExactBits) {
  const std::vector<double> values = {
      -0.0, std::bit_cast<double>(0x7ff80000deadbeefull),
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::infinity()};
  for (const double v : values) {
    std::string out;
    put_f64(out, v);
    ByteReader<std::invalid_argument> in(out, "f64");
    EXPECT_EQ(std::bit_cast<std::uint64_t>(in.f64()),
              std::bit_cast<std::uint64_t>(v));
  }
}

template <typename T, typename Bits>
void expect_array_matches_scalar_loop(const std::vector<T>& values) {
  std::string scalar;
  for (const T v : values) {
    put(scalar, std::bit_cast<Bits>(v));
  }
  std::string bulk = "x";  // appends after existing bytes
  put_array(bulk, std::span<const T>(values));
  EXPECT_EQ(bulk, "x" + scalar);

  ByteCount count;
  put_array(count, std::span<const T>(values));
  EXPECT_EQ(count.size, scalar.size());

  std::string stored(scalar.size() + 3, '\0');
  store_array(stored.data() + 3, std::span<const T>(values));
  EXPECT_EQ(stored.substr(3), scalar);

  std::vector<T> loaded(values.size());
  load_array(scalar.data(), std::span<T>(loaded));
  ByteReader<std::invalid_argument> in(scalar, "array");
  std::vector<T> read(values.size());
  in.array(std::span<T>(read));
  in.finish();
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(std::bit_cast<Bits>(loaded[i]), std::bit_cast<Bits>(values[i]));
    EXPECT_EQ(std::bit_cast<Bits>(read[i]), std::bit_cast<Bits>(values[i]));
  }
}

TEST(LeCodec, BulkArraysEqualTheScalarLoop) {
  expect_array_matches_scalar_loop<std::uint32_t, std::uint32_t>(
      {0, 1, 0x01020304u, 0xffffffffu, 0x80000000u});
  expect_array_matches_scalar_loop<double, std::uint64_t>(
      {0.0, -0.0, 1.0 / 3.0, std::numeric_limits<double>::denorm_min(),
       std::bit_cast<double>(0x7ff80000deadbeefull), -1e300});
}

TEST(LeCodec, EmptyArraysNeverTouchTheirNullPointer) {
  // An empty span may carry a null pointer; memcpy must never see it
  // (UBSan flags memcpy(dst, nullptr, 0) under the asan build).
  const std::span<const double> empty;
  ASSERT_EQ(empty.data(), nullptr);
  std::string out;
  put_array(out, empty);
  EXPECT_TRUE(out.empty());
  store_array(nullptr, empty);
  load_array(nullptr, std::span<std::uint32_t>());
  ByteReader<std::invalid_argument> in(std::string_view{}, "empty");
  in.array(std::span<double>());
  EXPECT_EQ(in.bytes(0).size(), 0u);
  in.finish();
}

/// One payload exercising every reader call, and the reads in order.
std::string sample_payload() {
  std::string out;
  put_u8(out, 7);
  put_u32(out, 0x01020304u);
  put_u64(out, 42);
  put_f64(out, 2.5);
  out += "abc";
  put_array(out, std::span<const std::uint32_t>(std::vector<std::uint32_t>{
                     5, 6}));
  return out;
}

template <typename Error>
void read_sample(std::string_view payload) {
  ByteReader<Error> in(payload, "sample");
  EXPECT_EQ(in.u8(), 7u);
  EXPECT_EQ(in.u32(), 0x01020304u);
  EXPECT_EQ(in.u64(), 42u);
  EXPECT_EQ(in.f64(), 2.5);
  EXPECT_EQ(in.bytes(3), "abc");
  std::vector<std::uint32_t> array(2);
  in.array(std::span<std::uint32_t>(array));
  EXPECT_EQ(array, (std::vector<std::uint32_t>{5, 6}));
  in.finish();
}

template <typename Error>
void expect_every_cut_and_extension_throws() {
  const std::string payload = sample_payload();
  read_sample<Error>(payload);
  ByteReader<Error> partial(payload, "sample");
  partial.u32();
  EXPECT_EQ(partial.remaining(), payload.size() - 4);
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_THROW(read_sample<Error>(payload.substr(0, cut)), Error)
        << "cut at " << cut;
  }
  try {
    read_sample<Error>(payload + '\0');
    ADD_FAILURE() << "trailing byte accepted";
  } catch (const Error& error) {
    EXPECT_STREQ(error.what(), "trailing bytes after sample");
  }
  try {
    read_sample<Error>(payload.substr(0, 3));
    ADD_FAILURE() << "truncated payload accepted";
  } catch (const Error& error) {
    EXPECT_STREQ(error.what(), "sample truncated");
  }
}

TEST(LeCodec, ReaderThrowsItsErrorTypeAtEveryTruncationPoint) {
  // Frames throw ProtocolError (caught at the session's frame
  // boundary); the WAL and the snapshot throw std::invalid_argument
  // (caught by recovery to skip a torn record or image).
  expect_every_cut_and_extension_throws<net::ProtocolError>();
  expect_every_cut_and_extension_throws<std::invalid_argument>();
}

TEST(LeCodec, ServerStatsFieldsRoundTripInTableOrder) {
  net::Response response;
  response.status = net::Status::kOkServerStats;
  std::uint64_t value = 1;
  for (const net::ServerStatsField& field : net::kServerStatsFields) {
    response.server_stats.*field.member = value;
    value = value * 3 + 1;
  }
  const std::string payload = net::encode_response(response);
  ASSERT_EQ(payload.size(), 1 + 8 * std::size(net::kServerStatsFields));
  std::size_t offset = 1;
  for (const net::ServerStatsField& field : net::kServerStatsFields) {
    EXPECT_EQ(load<std::uint64_t>(payload.data() + offset),
              response.server_stats.*field.member)
        << field.name;
    offset += 8;
  }
  EXPECT_EQ(net::decode_response(payload).server_stats,
            response.server_stats);
}

}  // namespace
}  // namespace itree::le
