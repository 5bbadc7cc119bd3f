#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <limits>

#include "net/retry.h"
#include "util/io.h"

namespace itree::net {

Client::Client(const std::string& host, std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    throw std::runtime_error(std::string("socket: ") +
                             std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("Client: bad host '" + host + "'");
  }
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const std::string what = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("Client: cannot connect to " + host + ":" +
                             std::to_string(port) + ": " + what);
  }
}

Client Client::connect_with_retry(const std::string& host,
                                  std::uint16_t port,
                                  double max_wait_seconds) {
  return net::connect_with_retry(host, port, max_wait_seconds);
}

Client::~Client() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Client::Client(Client&& other) noexcept
    : fd_(other.fd_),
      decoder_(std::move(other.decoder_)),
      last_write_seq_(other.last_write_seq_) {
  other.fd_ = -1;
}

void Client::send_bytes(std::string_view bytes) {
  // io::send_all owns the EINTR/partial-write retry loop (shared with
  // the storage engine's WAL writer).
  if (!io::send_all(fd_, bytes.data(), bytes.size())) {
    throw std::runtime_error(std::string("send: ") + std::strerror(errno));
  }
}

void Client::shutdown_write() { ::shutdown(fd_, SHUT_WR); }

void Client::send_request(const Request& request) {
  send_bytes(frame(encode_request(request)));
}

Response Client::read_response() {
  // Bytes land straight in the decoder's buffer, which grows once to an
  // announced frame's size, and the payload is decoded from a view.
  std::string_view payload;
  while (!decoder_.next(&payload)) {
    if (decoder_.corrupt()) {
      throw ProtocolError("server stream corrupt: " +
                          decoder_.corruption());
    }
    const std::span<char> room = decoder_.recv_room();
    std::size_t received = 0;
    switch (io::recv_some(fd_, room.data(), room.size(), &received)) {
      case io::IoStatus::kProgress:
        decoder_.commit(received);
        break;
      case io::IoStatus::kEof:
        throw std::runtime_error("server closed the connection");
      default:
        throw std::runtime_error(std::string("recv: ") +
                                 std::strerror(errno));
    }
  }
  Response response = decode_response(payload);
  // Track write-ack tokens on the single response funnel, so raw
  // call()/pipelined users get read-your-writes tokens too, not just
  // the typed helpers. Only write acks carry a token in these
  // statuses; REPL_* watermarks use their own statuses.
  if (response.status == Status::kOk || response.status == Status::kOkId ||
      response.status == Status::kOkBatch) {
    note_write_ack(response);
  }
  return response;
}

Response Client::call(const Request& request) {
  send_request(request);
  return read_checked();
}

Response Client::read_checked() {
  Response response = read_response();
  if (!response.ok()) {
    throw ServiceError(response.error, response.message);
  }
  return response;
}

void Client::note_write_ack(const Response& response) {
  if (response.seq > last_write_seq_) {
    last_write_seq_ = response.seq;
  }
}

NodeId Client::join(std::uint32_t campaign, NodeId referrer,
                    double initial_contribution) {
  Request request;
  request.type = MsgType::kJoin;
  request.campaign = campaign;
  request.node = referrer;
  request.amount = initial_contribution;
  const Response response = call(request);
  if (response.id > std::numeric_limits<NodeId>::max()) {
    throw ProtocolError("join: server returned an impossible id");
  }
  return static_cast<NodeId>(response.id);
}

void Client::contribute(std::uint32_t campaign, NodeId participant,
                        double amount) {
  Request request;
  request.type = MsgType::kContribute;
  request.campaign = campaign;
  request.node = participant;
  request.amount = amount;
  call(request);
}

double Client::reward(std::uint32_t campaign, NodeId participant) {
  Request request;
  request.type = MsgType::kReward;
  request.campaign = campaign;
  request.node = participant;
  return call(request).value;
}

double Client::reward_query_at(std::uint32_t campaign, NodeId participant,
                               std::uint64_t min_seq) {
  Request request;
  request.type = MsgType::kRewardAt;
  request.campaign = campaign;
  request.node = participant;
  request.seq = min_seq;
  return call(request).value;
}

std::vector<double> Client::rewards(std::uint32_t campaign) {
  Request request;
  request.type = MsgType::kRewardsBatch;
  request.campaign = campaign;
  return call(request).rewards;
}

double Client::audit(std::uint32_t campaign) {
  Request request;
  request.type = MsgType::kAudit;
  request.campaign = campaign;
  return call(request).value;
}

StatsBody Client::stats(std::uint32_t campaign) {
  Request request;
  request.type = MsgType::kStats;
  request.campaign = campaign;
  return call(request).stats;
}

BatchResult Client::send_events(std::uint32_t campaign,
                                std::span<const BatchEvent> events) {
  Request request;
  request.type = MsgType::kEventBatch;
  request.campaign = campaign;
  request.batch.assign(events.begin(), events.end());
  send_request(request);
  // Not read_checked(): a partial batch is an in-band outcome — the
  // applied prefix is real server state the caller must see.
  Response response = read_response();
  if (response.status == Status::kError) {
    throw ServiceError(response.error, response.message);
  }
  if (response.status != Status::kOkBatch) {
    throw ProtocolError("send_events: unexpected response status");
  }
  BatchResult result;
  result.requested = response.batch_count;
  result.results = std::move(response.batch_results);
  result.error = response.error;
  result.message = std::move(response.message);
  result.seq = response.seq;
  return result;
}

ServerStatsBody Client::server_stats() {
  Request request;
  request.type = MsgType::kServerStats;
  return call(request).server_stats;
}

ShardMapBody Client::shard_map() {
  Request request;
  request.type = MsgType::kShardMap;
  return call(request).shard_map;
}

void Client::shutdown_server() {
  Request request;
  request.type = MsgType::kShutdown;
  call(request);
}

}  // namespace itree::net
