// Length-prefixed binary wire protocol for the reward-service daemon.
//
// Frame layout: a 4-byte little-endian payload length L (1 <= L <=
// kMaxFrameBytes) followed by L payload bytes. The first payload byte is
// the message type (requests) or status (responses); remaining fields
// are fixed-width little-endian integers and raw IEEE-754 doubles, so a
// reward crosses the wire bit-exact — the loopback equivalence tests
// compare served and in-process reward vectors with operator==.
//
// The protocol is strictly request/response in order per connection;
// clients may pipeline (send several requests before reading), and the
// server answers in arrival order — including when requests on one
// connection route to different reactors (docs/protocol.md). The
// EVENT_BATCH message is the batch-friendly fast path: many reward
// events in one frame, one response frame, one ancestor-walk flush.
// FrameDecoder is the receive half: it accepts arbitrary read
// fragmentation (partial frames, many frames per read) and flags a
// connection corrupt on an impossible length prefix instead of
// buffering unboundedly.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace itree::net {

/// Hard cap on one frame's payload; a peer announcing more is corrupt
/// (bounds decoder buffering). 16 MiB fits a REWARDS_BATCH response for
/// roughly two million participants, or an EVENT_BATCH of ~987k events.
inline constexpr std::uint32_t kMaxFrameBytes = 16u << 20;

/// Thrown by the payload codecs on malformed bytes; sessions catch it
/// at the frame boundary and answer with an error frame.
struct ProtocolError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

enum class MsgType : std::uint8_t {
  kJoin = 0x01,          ///< campaign, referrer, initial contribution
  kContribute = 0x02,    ///< campaign, participant, amount
  kReward = 0x03,        ///< campaign, participant
  kRewardsBatch = 0x04,  ///< campaign
  kAudit = 0x05,         ///< campaign
  kStats = 0x06,         ///< campaign
  kShutdown = 0x07,      ///< no fields; asks the server to drain
  kEventBatch = 0x08,    ///< campaign, count, count x batch events
  kServerStats = 0x09,   ///< no fields; live server-wide counters
  kRewardAt = 0x0a,      ///< campaign, participant, min applied seq
  kShardMap = 0x0b,      ///< no fields; the router's campaign -> shard map
  // Replication stream (replica -> primary), 0x10-0x13. The replica is
  // an ordinary pipelining client of the primary; shipping is pull-based
  // so it composes with the strictly request/response framing.
  kReplHello = 0x10,     ///< protocol version, replica's last applied seq
  kReplSnapshot = 0x11,  ///< no fields; full snapshot image (ITSNAP05)
  kReplSegment = 0x12,   ///< from seq, max records
  kReplHeartbeat = 0x13, ///< no fields; primary's committed seq
};

/// JOIN, CONTRIBUTE and EVENT_BATCH: the frames that change a campaign.
inline bool is_write(MsgType type) {
  return type == MsgType::kJoin || type == MsgType::kContribute ||
         type == MsgType::kEventBatch;
}

/// REPL_*: the replication stream, served by a primary worker only.
inline bool is_replication(MsgType type) {
  return type >= MsgType::kReplHello && type <= MsgType::kReplHeartbeat;
}

enum class Status : std::uint8_t {
  kOk = 0x80,       ///< no body
  kOkId = 0x81,     ///< u64 assigned participant id
  kOkValue = 0x82,  ///< f64 (reward or audit divergence)
  kOkVector = 0x83, ///< u64 count + count f64 rewards (index = node id)
  kOkStats = 0x84,  ///< events, participants, total reward, incremental
  kOkBatch = 0x85,  ///< EVENT_BATCH result: applied prefix + ids
  kOkServerStats = 0x86,  ///< live operational counters
  kOkShardMap = 0x87,     ///< campaigns + per-shard endpoint/health
  kOkReplHello = 0x90,    ///< version, campaigns, committed/min seq, mech
  kOkReplSnapshot = 0x91, ///< committed seq + snapshot image (ITSNAP05)
  kOkReplSegment = 0x92,  ///< committed/min seq + raw WAL record bytes
  kOkReplHeartbeat = 0x93,///< committed seq
  kError = 0xff,    ///< error code + message
};

enum class ErrorCode : std::uint8_t {
  kNone = 0,
  kBadRequest = 1,      ///< undecodable payload
  kUnknownCampaign = 2, ///< campaign id out of range
  kRejected = 3,        ///< the service refused (bad node id, negative
                        ///< amount, shutdown disabled...)
  kShuttingDown = 4,    ///< server is draining
  kNotPrimary = 5,      ///< write sent to a read replica; message names
                        ///< the primary as "host:port"
  kReplicaLagging = 6,  ///< REWARD_AT token not applied within the
                        ///< replica's --serve-stale-ms bound
  kSeqCompacted = 7,    ///< REPL_SEGMENT from_seq older than the
                        ///< primary's oldest retained WAL record
  kShardDown = 8,       ///< the router cannot reach the owning shard
                        ///< worker; message names the shard + endpoint
};

/// One entry of an EVENT_BATCH frame: a join (node = referrer) or a
/// contribution (node = participant).
struct BatchEvent {
  static constexpr std::uint8_t kJoin = 0;
  static constexpr std::uint8_t kContribute = 1;

  std::uint8_t kind = kJoin;
  std::uint64_t node = 0;
  double amount = 0.0;

  bool operator==(const BatchEvent&) const = default;
};

/// Wire bytes of one BatchEvent (kind u8 + node u64 + amount f64).
inline constexpr std::size_t kBatchEventWireBytes = 17;

/// Most events one EVENT_BATCH frame can carry: its payload (type u8,
/// campaign u32, count u32, then the events) must fit kMaxFrameBytes.
inline constexpr std::uint32_t kMaxBatchEvents =
    (kMaxFrameBytes - 9) / kBatchEventWireBytes;

/// Most campaigns one deployment hosts: the `--campaigns` bound of
/// every front end and load driver. An empty campaign costs a daemon
/// about 2.4 KB and one entry of its exit report, so an idle deployment
/// at the cap stays under 200 MB.
inline constexpr std::uint32_t kMaxCampaigns = 1u << 16;

/// One client request. `node` is the referrer (kJoin) or the queried /
/// contributing participant; `amount` is the (initial) contribution.
/// Fields a message type does not use are ignored by the codec;
/// `batch` is only meaningful for kEventBatch. `seq` is the
/// read-your-writes token (kRewardAt: minimum applied sequence), the
/// replica's last applied sequence (kReplHello), or the first requested
/// sequence (kReplSegment); `max_records` bounds a kReplSegment reply.
struct Request {
  MsgType type = MsgType::kStats;
  std::uint32_t campaign = 0;
  std::uint64_t node = 0;
  double amount = 0.0;
  std::vector<BatchEvent> batch;
  std::uint64_t seq = 0;
  std::uint32_t max_records = 0;

  bool operator==(const Request&) const = default;
};

struct StatsBody {
  std::uint64_t events = 0;
  std::uint64_t participants = 0;
  double total_reward = 0.0;
  /// Always true since every served mechanism is incremental; kept so
  /// the STATS wire format does not change.
  bool incremental = false;

  bool operator==(const StatsBody&) const = default;
};

/// Live server-wide operational counters (SERVER_STATS response):
/// per-reactor counters summed at the moment the frame is served, so a
/// deployment can be monitored without stopping it.
struct ServerStatsBody {
  std::uint64_t reactors = 0;
  std::uint64_t sessions_accepted = 0;
  std::uint64_t sessions_closed = 0;
  std::uint64_t requests_served = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t sessions_timed_out = 0;
  std::uint64_t backpressure_stalls = 0;
  /// Events in each tick's runs of consecutive write frames for one
  /// campaign (an EVENT_BATCH counts its applied events), and the
  /// number of such runs. A replica's shipped records are counted in
  /// repl_records_shipped instead.
  std::uint64_t events_batched = 0;
  std::uint64_t batch_flushes = 0;
  /// Always 0: every reactor applies its own sessions' requests. The
  /// field keeps the frame's layout.
  std::uint64_t requests_forwarded = 0;
  std::uint64_t event_batches = 0;

  // Replication (all zero on a standalone primary without replicas):
  std::uint64_t role = 0;            ///< 0 primary/standalone, 1 replica
  std::uint64_t committed_seq = 0;   ///< durable WAL watermark (primary)
  std::uint64_t applied_seq = 0;     ///< replica: applied floor
  std::uint64_t primary_seq = 0;     ///< replica: primary's committed seq
  std::uint64_t repl_records_shipped = 0;
  std::uint64_t token_waits = 0;     ///< REWARD_AT queries parked
  std::uint64_t token_bounces = 0;   ///< parked queries past stale bound
  std::uint64_t writes_redirected = 0;

  /// Monotonic per-process poll counter, bumped every time this body is
  /// read (served, or reported at exit). Consecutive polls of the same
  /// process observe strictly increasing values, so a poller (the
  /// router's SERVER_STATS aggregation, loadgen --verify-only) seeing
  /// `stats_seq <= previous` knows the process restarted and every
  /// cumulative counter above reset — instead of silently summing
  /// counters from a fresh process.
  std::uint64_t stats_seq = 0;

  bool operator==(const ServerStatsBody&) const = default;
};

/// One SERVER_STATS field: its report name and its member.
struct ServerStatsField {
  const char* name;
  std::uint64_t ServerStatsBody::*member;
};

/// Every ServerStatsBody field in wire order (each a u64). The codec,
/// the router's per-shard sum and itree-served's exit report all walk
/// this table, so a new counter is added here and nowhere else.
inline constexpr ServerStatsField kServerStatsFields[] = {
    {"reactors", &ServerStatsBody::reactors},
    {"sessions_accepted", &ServerStatsBody::sessions_accepted},
    {"sessions_closed", &ServerStatsBody::sessions_closed},
    {"requests_served", &ServerStatsBody::requests_served},
    {"protocol_errors", &ServerStatsBody::protocol_errors},
    {"sessions_timed_out", &ServerStatsBody::sessions_timed_out},
    {"backpressure_stalls", &ServerStatsBody::backpressure_stalls},
    {"events_batched", &ServerStatsBody::events_batched},
    {"batch_flushes", &ServerStatsBody::batch_flushes},
    {"requests_forwarded", &ServerStatsBody::requests_forwarded},
    {"event_batches", &ServerStatsBody::event_batches},
    {"role", &ServerStatsBody::role},
    {"committed_seq", &ServerStatsBody::committed_seq},
    {"applied_seq", &ServerStatsBody::applied_seq},
    {"primary_seq", &ServerStatsBody::primary_seq},
    {"repl_records_shipped", &ServerStatsBody::repl_records_shipped},
    {"token_waits", &ServerStatsBody::token_waits},
    {"token_bounces", &ServerStatsBody::token_bounces},
    {"writes_redirected", &ServerStatsBody::writes_redirected},
    {"stats_seq", &ServerStatsBody::stats_seq},
};
static_assert(sizeof(kServerStatsFields) / sizeof(ServerStatsField) * 8 ==
                  sizeof(ServerStatsBody),
              "kServerStatsFields must list every ServerStatsBody field");

/// One shard of a router's campaign -> shard map (kOkShardMap).
struct ShardMapEntry {
  std::string endpoint;        ///< worker "host:port"
  std::uint8_t healthy = 0;    ///< 1 when the backend link is up
  std::uint64_t restarts = 0;  ///< supervisor restarts of this worker

  bool operator==(const ShardMapEntry&) const = default;
};

/// SHARD_MAP response body: campaign c is owned by shard
/// (c mod shards.size()); the map is static for the router's lifetime
/// (only the health/restart fields change between polls).
struct ShardMapBody {
  std::uint32_t campaigns = 0;
  std::vector<ShardMapEntry> shards;

  bool operator==(const ShardMapBody&) const = default;
};

/// Replication response body (kOkReplHello / kOkReplSnapshot /
/// kOkReplSegment). The committed sequence rides in Response::seq.
struct ReplBody {
  std::uint32_t version = 0;        ///< kOkReplHello
  std::uint32_t campaigns = 0;      ///< kOkReplHello
  std::uint64_t min_available_seq = 0;  ///< oldest shippable seq
  std::string mechanism;            ///< kOkReplHello: display name
  std::string payload;              ///< snapshot image / raw WAL records

  bool operator==(const ReplBody&) const = default;
};

/// Replication wire protocol version spoken by this build.
inline constexpr std::uint32_t kReplProtocolVersion = 1;

/// One server response; which fields are meaningful depends on status.
/// kOkBatch: `batch_count` echoes the request's event count and
/// `batch_results` holds one u64 per *applied* event (assigned id for
/// joins, 0 for contributions). When the applied prefix is shorter than
/// the request (`batch_results.size() < batch_count`) the event at
/// index batch_results.size() was rejected and `error` / `message`
/// carry the cause; later events were not applied.
///
/// `seq` is the write-ack consistency token: the WAL sequence assigned
/// to the acked event (kOkId always carries it; kOk and kOkBatch carry
/// it when the server is durable — 0 means "no token", an in-memory
/// deployment). For replication statuses it is the primary's committed
/// sequence. Clients hand the token back via kRewardAt for
/// read-your-writes on a replica.
struct Response {
  Status status = Status::kOk;
  ErrorCode error = ErrorCode::kNone;
  std::string message;          ///< kError / partial kOkBatch: cause
  std::uint64_t id = 0;         ///< kOkId
  double value = 0.0;           ///< kOkValue
  std::vector<double> rewards;  ///< kOkVector
  StatsBody stats;              ///< kOkStats
  ServerStatsBody server_stats; ///< kOkServerStats
  std::uint32_t batch_count = 0;           ///< kOkBatch
  std::vector<std::uint64_t> batch_results; ///< kOkBatch
  std::uint64_t seq = 0;        ///< write-ack token / committed seq
  ReplBody repl;                ///< kOkRepl* bodies
  ShardMapBody shard_map;       ///< kOkShardMap
  /// The whole frame (length prefix included) when the response was
  /// encoded where it was produced: REWARDS writes its OK_VECTOR
  /// straight from the campaign's aggregate columns into it (see
  /// append_vector_frame_header). When non-empty these bytes are the
  /// response; the codecs emit them as they are and EventLoop queues
  /// them as their own output chunk, without another copy.
  std::string framed;

  bool ok() const { return status != Status::kError; }
};

/// Payload codecs (no length prefix). Decoders throw ProtocolError on
/// unknown types, short bodies, or trailing bytes.
std::string encode_request(const Request& request);
std::string encode_response(const Response& response);
Request decode_request(std::string_view payload);
Response decode_response(std::string_view payload);

/// Prepends the 4-byte length prefix. Throws ProtocolError when the
/// payload is empty or exceeds kMaxFrameBytes.
std::string frame(std::string_view payload);

/// Appends the framed `payload` to `out` (frame() without the
/// temporary); same ProtocolError, leaving `out` unchanged.
void append_frame(std::string& out, std::string_view payload);

/// Appends the framed encoding of `response` directly to `out` —
/// the serving hot path's zero-temporary variant of
/// `out += frame(encode_response(response))`. The payload is sized
/// before anything is written, and `out` grows once to fit the frame.
/// Throws ProtocolError (leaving `out` unchanged) when the payload
/// exceeds kMaxFrameBytes.
void append_framed_response(std::string& out, const Response& response);

/// Appends the length prefix and the OK_VECTOR header (status, count)
/// of a frame whose `count` rewards the caller appends next, each as
/// raw little-endian IEEE-754 (le::put_array), and reserves room for
/// them. Together the bytes equal append_framed_response() of a
/// kOkVector response holding the same rewards. Throws ProtocolError
/// (leaving `out` unchanged) when the payload would exceed
/// kMaxFrameBytes.
void append_vector_frame_header(std::string& out, std::uint64_t count);

/// The pre-encoded frame of a plain OK response (CONTRIBUTE ack) — the
/// most common response byte string, shared so the hot path appends it
/// without re-encoding.
const std::string& ok_frame();

/// Shorthand for an error response.
Response error_response(ErrorCode code, std::string message);

/// Incremental frame decoder. Bytes arrive through recv_room(): recv()
/// into it, then commit() the count (feed() is that loop over bytes in
/// memory); complete frames are then drained with next(). Tolerates any
/// fragmentation; a zero or oversized length prefix poisons the decoder
/// (corrupt()) and next() returns false forever — the session should
/// send one error frame and close.
///
/// The decoder only holds what it has buffered: bytes land in a
/// per-thread scratch buffer and are copied behind the pending partial
/// frame, except when the frame being received announces more than
/// kRecvBytes, or the buffer already has kRecvBytes free. Then they
/// land in place, in one allocation sized to the announced frame, so a
/// large REWARDS frame is received without a bounce copy while an idle
/// connection keeps no receive-sized buffer.
class FrameDecoder {
 public:
  /// Size of the per-thread scratch buffer, and the least room
  /// recv_room() offers.
  static constexpr std::size_t kRecvBytes = 64 * 1024;

  /// Copies `size` bytes in through recv_room()/commit().
  void feed(const char* data, std::size_t size);
  void feed(std::string_view data) { feed(data.data(), data.size()); }

  /// Writable room for the next receive, at least kRecvBytes and, once
  /// a frame's length prefix is in, at least the rest of that frame.
  /// Either the per-thread scratch buffer or the decoder's own buffer
  /// (see above); commit() must follow on the same thread before any
  /// other decoder there asks for room. Invalidates views next()
  /// returned.
  std::span<char> recv_room();
  /// Marks the first `size` bytes of the last recv_room() as received.
  void commit(std::size_t size);

  /// The next complete payload as a view into the buffer, valid until
  /// the next feed(), recv_room() or commit(); false when more bytes
  /// are needed (or the stream is corrupt).
  bool next(std::string_view* payload);
  /// next() of the whole frame, length prefix included: what a relay
  /// forwards byte for byte.
  bool next_frame(std::string_view* frame);

  bool corrupt() const { return corrupt_; }
  const std::string& corruption() const { return corruption_; }

  /// Bytes buffered but not yet returned (0 on a frame boundary).
  std::size_t buffered() const { return end_ - begin_; }
  /// Bytes the decoder's own buffer holds allocated.
  std::size_t capacity() const { return capacity_; }

 private:
  /// Makes `room` writable bytes available past end_.
  void reserve_room(std::size_t room);

  /// Left uninitialized: only received bytes are ever touched.
  std::unique_ptr<char[]> data_;
  std::size_t capacity_ = 0;
  std::size_t begin_ = 0;  ///< first byte not yet returned
  std::size_t end_ = 0;    ///< one past the last received byte
  bool in_scratch_ = false;  ///< the last recv_room() was the scratch
  bool corrupt_ = false;
  std::string corruption_;
};

}  // namespace itree::net
