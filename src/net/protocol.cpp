#include "net/protocol.h"

#include <algorithm>
#include <cstring>
#include <span>

#include "util/le_codec.h"

namespace itree::net {
namespace {

// All integers and doubles travel little-endian (util/le_codec.h); a
// reward vector is one bulk copy of its IEEE-754 array. The encoders
// are templates over the output: std::string, or le::ByteCount, which
// measures an encoding without writing it.
using le::put_array;
using le::put_f64;
using le::put_u32;
using le::put_u64;
using le::put_u8;
using Reader = le::ByteReader<ProtocolError>;

template <typename Out>
void encode_error_tail(Out& out, ErrorCode code,
                       const std::string& message) {
  put_u8(out, static_cast<std::uint8_t>(code));
  put_u32(out, static_cast<std::uint32_t>(message.size()));
  out += message;
}

void decode_error_tail(Reader& reader, Response& response) {
  const std::uint8_t code = reader.u8();
  if (code > static_cast<std::uint8_t>(ErrorCode::kShardDown)) {
    throw ProtocolError("unknown error code " + std::to_string(code));
  }
  response.error = static_cast<ErrorCode>(code);
  const std::uint32_t length = reader.u32();
  response.message = reader.bytes(length);
}

/// Appends the payload of `response` (no length prefix) to `out`.
template <typename Out>
void encode_response_into(Out& out, const Response& response) {
  if (!response.framed.empty()) {
    out += std::string_view(response.framed).substr(4);
    return;
  }
  put_u8(out, static_cast<std::uint8_t>(response.status));
  switch (response.status) {
    case Status::kOk:
      // Optional trailing write-ack token. Omitted when zero so the
      // shared pre-encoded ok_frame() stays valid for tokenless acks.
      if (response.seq != 0) {
        put_u64(out, response.seq);
      }
      break;
    case Status::kOkId:
      put_u64(out, response.id);
      put_u64(out, response.seq);
      break;
    case Status::kOkValue:
      put_f64(out, response.value);
      break;
    case Status::kOkVector:
      put_u64(out, response.rewards.size());
      put_array(out, std::span<const double>(response.rewards));
      break;
    case Status::kOkStats:
      put_u64(out, response.stats.events);
      put_u64(out, response.stats.participants);
      put_f64(out, response.stats.total_reward);
      put_u8(out, response.stats.incremental ? 1 : 0);
      break;
    case Status::kOkBatch: {
      if (response.batch_results.size() > response.batch_count) {
        throw ProtocolError("kOkBatch: more results than batch events");
      }
      put_u32(out, response.batch_count);
      put_u32(out, static_cast<std::uint32_t>(response.batch_results.size()));
      for (const std::uint64_t result : response.batch_results) {
        put_u64(out, result);
      }
      if (response.batch_results.size() < response.batch_count) {
        encode_error_tail(out, response.error, response.message);
      }
      put_u64(out, response.seq);  // token of the last applied event
      break;
    }
    case Status::kOkServerStats: {
      for (const ServerStatsField& field : kServerStatsFields) {
        put_u64(out, response.server_stats.*field.member);
      }
      break;
    }
    case Status::kOkShardMap: {
      put_u32(out, response.shard_map.campaigns);
      put_u32(out,
              static_cast<std::uint32_t>(response.shard_map.shards.size()));
      for (const ShardMapEntry& shard : response.shard_map.shards) {
        put_u32(out, static_cast<std::uint32_t>(shard.endpoint.size()));
        out += shard.endpoint;
        put_u8(out, shard.healthy ? 1 : 0);
        put_u64(out, shard.restarts);
      }
      break;
    }
    case Status::kOkReplHello:
      put_u32(out, response.repl.version);
      put_u32(out, response.repl.campaigns);
      put_u64(out, response.seq);
      put_u64(out, response.repl.min_available_seq);
      put_u32(out, static_cast<std::uint32_t>(response.repl.mechanism.size()));
      out += response.repl.mechanism;
      break;
    case Status::kOkReplSnapshot:
    case Status::kOkReplSegment:
      put_u64(out, response.seq);
      put_u64(out, response.repl.min_available_seq);
      put_u32(out, static_cast<std::uint32_t>(response.repl.payload.size()));
      out += response.repl.payload;
      break;
    case Status::kOkReplHeartbeat:
      put_u64(out, response.seq);
      break;
    case Status::kError:
      encode_error_tail(out, response.error, response.message);
      break;
    default:
      throw ProtocolError("encode_response: unknown status");
  }
}

}  // namespace

std::string encode_request(const Request& request) {
  std::string out;
  put_u8(out, static_cast<std::uint8_t>(request.type));
  switch (request.type) {
    case MsgType::kJoin:
    case MsgType::kContribute:
      put_u32(out, request.campaign);
      put_u64(out, request.node);
      put_f64(out, request.amount);
      break;
    case MsgType::kReward:
      put_u32(out, request.campaign);
      put_u64(out, request.node);
      break;
    case MsgType::kRewardsBatch:
    case MsgType::kAudit:
    case MsgType::kStats:
      put_u32(out, request.campaign);
      break;
    case MsgType::kRewardAt:
      put_u32(out, request.campaign);
      put_u64(out, request.node);
      put_u64(out, request.seq);
      break;
    case MsgType::kShutdown:
    case MsgType::kServerStats:
    case MsgType::kShardMap:
    case MsgType::kReplSnapshot:
    case MsgType::kReplHeartbeat:
      break;
    case MsgType::kReplHello:
      put_u32(out, kReplProtocolVersion);
      put_u64(out, request.seq);
      break;
    case MsgType::kReplSegment:
      put_u64(out, request.seq);
      put_u32(out, request.max_records);
      break;
    case MsgType::kEventBatch: {
      put_u32(out, request.campaign);
      put_u32(out, static_cast<std::uint32_t>(request.batch.size()));
      out.reserve(out.size() +
                  request.batch.size() * kBatchEventWireBytes);
      for (const BatchEvent& event : request.batch) {
        if (event.kind > BatchEvent::kContribute) {
          throw ProtocolError("encode_request: unknown batch event kind");
        }
        put_u8(out, event.kind);
        put_u64(out, event.node);
        put_f64(out, event.amount);
      }
      break;
    }
    default:
      throw ProtocolError("encode_request: unknown message type");
  }
  return out;
}

Request decode_request(std::string_view payload) {
  Reader reader(payload, "message body");
  Request request;
  const std::uint8_t type = reader.u8();
  switch (static_cast<MsgType>(type)) {
    case MsgType::kJoin:
    case MsgType::kContribute:
      request.type = static_cast<MsgType>(type);
      request.campaign = reader.u32();
      request.node = reader.u64();
      request.amount = reader.f64();
      break;
    case MsgType::kReward:
      request.type = MsgType::kReward;
      request.campaign = reader.u32();
      request.node = reader.u64();
      break;
    case MsgType::kRewardsBatch:
    case MsgType::kAudit:
    case MsgType::kStats:
      request.type = static_cast<MsgType>(type);
      request.campaign = reader.u32();
      break;
    case MsgType::kRewardAt:
      request.type = MsgType::kRewardAt;
      request.campaign = reader.u32();
      request.node = reader.u64();
      request.seq = reader.u64();
      break;
    case MsgType::kShutdown:
    case MsgType::kServerStats:
    case MsgType::kShardMap:
    case MsgType::kReplSnapshot:
    case MsgType::kReplHeartbeat:
      request.type = static_cast<MsgType>(type);
      break;
    case MsgType::kReplHello: {
      request.type = MsgType::kReplHello;
      const std::uint32_t version = reader.u32();
      if (version != kReplProtocolVersion) {
        throw ProtocolError("unsupported replication protocol version " +
                            std::to_string(version));
      }
      request.seq = reader.u64();
      break;
    }
    case MsgType::kReplSegment:
      request.type = MsgType::kReplSegment;
      request.seq = reader.u64();
      request.max_records = reader.u32();
      break;
    case MsgType::kEventBatch: {
      request.type = MsgType::kEventBatch;
      request.campaign = reader.u32();
      const std::uint32_t count = reader.u32();
      if (static_cast<std::uint64_t>(count) * kBatchEventWireBytes !=
          reader.remaining()) {
        throw ProtocolError("EVENT_BATCH count does not match payload size");
      }
      request.batch.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        BatchEvent event;
        event.kind = reader.u8();
        if (event.kind > BatchEvent::kContribute) {
          throw ProtocolError("EVENT_BATCH: unknown event kind " +
                              std::to_string(event.kind));
        }
        event.node = reader.u64();
        event.amount = reader.f64();
        request.batch.push_back(event);
      }
      break;
    }
    default:
      throw ProtocolError("unknown request type " + std::to_string(type));
  }
  reader.finish();
  return request;
}

std::string encode_response(const Response& response) {
  std::string out;
  encode_response_into(out, response);
  return out;
}

Response decode_response(std::string_view payload) {
  Reader reader(payload, "message body");
  Response response;
  const std::uint8_t status = reader.u8();
  switch (static_cast<Status>(status)) {
    case Status::kOk:
      response.status = Status::kOk;
      if (reader.remaining() == 8) {
        response.seq = reader.u64();
      }
      break;
    case Status::kOkId:
      response.status = Status::kOkId;
      response.id = reader.u64();
      response.seq = reader.u64();
      break;
    case Status::kOkValue:
      response.status = Status::kOkValue;
      response.value = reader.f64();
      break;
    case Status::kOkVector: {
      response.status = Status::kOkVector;
      const std::uint64_t count = reader.u64();
      // Divide rather than multiply: count * 8 wraps for counts >= 2^61.
      if (count > reader.remaining() / sizeof(double)) {
        throw ProtocolError("reward vector longer than payload");
      }
      response.rewards.resize(static_cast<std::size_t>(count));
      reader.array(std::span<double>(response.rewards));
      break;
    }
    case Status::kOkStats:
      response.status = Status::kOkStats;
      response.stats.events = reader.u64();
      response.stats.participants = reader.u64();
      response.stats.total_reward = reader.f64();
      response.stats.incremental = reader.u8() != 0;
      break;
    case Status::kOkBatch: {
      response.status = Status::kOkBatch;
      response.batch_count = reader.u32();
      const std::uint32_t applied = reader.u32();
      if (applied > response.batch_count) {
        throw ProtocolError("kOkBatch: applied count exceeds batch count");
      }
      if (static_cast<std::uint64_t>(applied) * 8 > reader.remaining()) {
        throw ProtocolError("kOkBatch: results longer than payload");
      }
      response.batch_results.reserve(applied);
      for (std::uint32_t i = 0; i < applied; ++i) {
        response.batch_results.push_back(reader.u64());
      }
      if (applied < response.batch_count) {
        decode_error_tail(reader, response);
      }
      response.seq = reader.u64();
      break;
    }
    case Status::kOkServerStats: {
      response.status = Status::kOkServerStats;
      for (const ServerStatsField& field : kServerStatsFields) {
        response.server_stats.*field.member = reader.u64();
      }
      break;
    }
    case Status::kOkShardMap: {
      response.status = Status::kOkShardMap;
      response.shard_map.campaigns = reader.u32();
      const std::uint32_t count = reader.u32();
      // Each entry needs at least its length prefix + health + restarts.
      if (static_cast<std::uint64_t>(count) * 13 > reader.remaining()) {
        throw ProtocolError("shard map longer than payload");
      }
      response.shard_map.shards.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        ShardMapEntry shard;
        const std::uint32_t length = reader.u32();
        shard.endpoint = reader.bytes(length);
        shard.healthy = reader.u8();
        shard.restarts = reader.u64();
        response.shard_map.shards.push_back(std::move(shard));
      }
      break;
    }
    case Status::kOkReplHello: {
      response.status = Status::kOkReplHello;
      response.repl.version = reader.u32();
      response.repl.campaigns = reader.u32();
      response.seq = reader.u64();
      response.repl.min_available_seq = reader.u64();
      const std::uint32_t length = reader.u32();
      response.repl.mechanism = reader.bytes(length);
      break;
    }
    case Status::kOkReplSnapshot:
    case Status::kOkReplSegment: {
      response.status = static_cast<Status>(status);
      response.seq = reader.u64();
      response.repl.min_available_seq = reader.u64();
      const std::uint32_t length = reader.u32();
      response.repl.payload = reader.bytes(length);
      break;
    }
    case Status::kOkReplHeartbeat:
      response.status = Status::kOkReplHeartbeat;
      response.seq = reader.u64();
      break;
    case Status::kError: {
      response.status = Status::kError;
      decode_error_tail(reader, response);
      break;
    }
    default:
      throw ProtocolError("unknown response status " +
                          std::to_string(status));
  }
  reader.finish();
  return response;
}

std::string frame(std::string_view payload) {
  std::string out;
  append_frame(out, payload);
  return out;
}

void append_frame(std::string& out, std::string_view payload) {
  if (payload.empty() || payload.size() > kMaxFrameBytes) {
    throw ProtocolError("frame payload size out of range: " +
                        std::to_string(payload.size()));
  }
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out += payload;
}

void append_framed_response(std::string& out, const Response& response) {
  if (!response.framed.empty()) {
    out += response.framed;
    return;
  }
  // Size the payload first: an invalid or oversized response throws
  // before `out` is touched, and the frame is then written into exactly
  // the room it needs.
  le::ByteCount payload;
  encode_response_into(payload, response);
  if (payload.size == 0 || payload.size > kMaxFrameBytes) {
    throw ProtocolError("frame payload size out of range: " +
                        std::to_string(payload.size));
  }
  out.reserve(out.size() + 4 + payload.size);
  put_u32(out, static_cast<std::uint32_t>(payload.size));
  encode_response_into(out, response);
}

void append_vector_frame_header(std::string& out, std::uint64_t count) {
  constexpr std::uint64_t kHeader = 1 + 8;  // status + count
  if (count > (kMaxFrameBytes - kHeader) / sizeof(double)) {
    throw ProtocolError("frame payload size out of range: " +
                        std::to_string(kHeader + count * sizeof(double)));
  }
  const std::uint64_t payload = kHeader + count * sizeof(double);
  out.reserve(out.size() + 4 + payload);
  put_u32(out, static_cast<std::uint32_t>(payload));
  put_u8(out, static_cast<std::uint8_t>(Status::kOkVector));
  put_u64(out, count);
}

const std::string& ok_frame() {
  static const std::string kOkFrame = frame(encode_response(Response{}));
  return kOkFrame;
}

Response error_response(ErrorCode code, std::string message) {
  Response response;
  response.status = Status::kError;
  response.error = code;
  response.message = std::move(message);
  return response;
}

namespace {

/// The receive room of the calling thread while no large frame is in
/// progress; commit() copies what landed in it behind the decoder's
/// pending bytes.
std::span<char> recv_scratch() {
  thread_local const std::unique_ptr<char[]> scratch(
      new char[FrameDecoder::kRecvBytes]);
  return {scratch.get(), FrameDecoder::kRecvBytes};
}

}  // namespace

void FrameDecoder::feed(const char* data, std::size_t size) {
  while (size > 0 && !corrupt_) {
    const std::span<char> room = recv_room();
    const std::size_t n = std::min(size, room.size());
    std::memcpy(room.data(), data, n);
    commit(n);
    data += n;
    size -= n;
  }
}

std::span<char> FrameDecoder::recv_room() {
  const std::size_t held = end_ - begin_;
  std::size_t rest = 0;  // missing bytes of the announced frame
  if (!corrupt_ && held >= 4) {
    const std::uint32_t length = le::load<std::uint32_t>(data_.get() + begin_);
    if (length != 0 && length <= kMaxFrameBytes &&
        held < 4 + static_cast<std::size_t>(length)) {
      rest = 4 + static_cast<std::size_t>(length) - held;
    }
  }
  in_scratch_ = rest <= kRecvBytes && capacity_ - held < kRecvBytes;
  if (in_scratch_) {
    return recv_scratch();
  }
  reserve_room(std::max(rest, kRecvBytes));
  return {data_.get() + end_, capacity_ - end_};
}

void FrameDecoder::commit(std::size_t size) {
  if (corrupt_) {
    return;
  }
  if (!in_scratch_) {
    end_ += std::min(size, capacity_ - end_);
    return;
  }
  size = std::min(size, kRecvBytes);
  reserve_room(size);
  std::memcpy(data_.get() + end_, recv_scratch().data(), size);
  end_ += size;
}

void FrameDecoder::reserve_room(std::size_t room) {
  if (begin_ == end_) {
    begin_ = end_ = 0;  // on a frame boundary: reuse from the start
  }
  if (capacity_ - end_ >= room) {
    return;
  }
  const std::size_t held = end_ - begin_;
  if (capacity_ - held >= room) {
    // Room enough once the returned prefix is reclaimed.
    std::memmove(data_.get(), data_.get() + begin_, held);
  } else {
    // An announced frame gets exactly its size (a 16 MiB frame does not
    // leave 32 MiB behind); a run of small frames grows geometrically.
    const std::size_t capacity = room > kRecvBytes
                                     ? held + room
                                     : std::max(held + room, 2 * capacity_);
    std::unique_ptr<char[]> grown(new char[capacity]);
    if (held != 0) {
      std::memcpy(grown.get(), data_.get() + begin_, held);
    }
    data_ = std::move(grown);
    capacity_ = capacity;
  }
  begin_ = 0;
  end_ = held;
}

bool FrameDecoder::next_frame(std::string_view* frame) {
  if (corrupt_ || end_ - begin_ < 4) {
    return false;
  }
  const std::uint32_t length = le::load<std::uint32_t>(data_.get() + begin_);
  if (length == 0 || length > kMaxFrameBytes) {
    corrupt_ = true;
    corruption_ = "frame length " + std::to_string(length) +
                  " outside (0, " + std::to_string(kMaxFrameBytes) + "]";
    begin_ = end_ = 0;
    return false;
  }
  const std::size_t frame_bytes = 4 + static_cast<std::size_t>(length);
  if (end_ - begin_ < frame_bytes) {
    return false;
  }
  *frame = std::string_view(data_.get() + begin_, frame_bytes);
  begin_ += frame_bytes;
  return true;
}

bool FrameDecoder::next(std::string_view* payload) {
  std::string_view frame;
  if (!next_frame(&frame)) {
    return false;
  }
  *payload = frame.substr(4);
  return true;
}

}  // namespace itree::net
