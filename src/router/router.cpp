#include "router/router.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <exception>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "net/endpoint.h"
#include "net/event_loop.h"
#include "net/retry.h"
#include "net/spsc_ring.h"
#include "util/bench_json.h"  // monotonic_seconds
#include "util/io.h"
#include "util/le_codec.h"

namespace itree::router {

using net::ErrorCode;
using net::EventLoop;
using net::FrameDecoder;
using net::MsgType;
using net::Response;
using net::ServerStatsBody;
using net::Session;
using net::Status;

namespace {

/// Backend reconnect schedule: 10 ms doubling to 640 ms (net/retry.h).
/// A supervisor restart notification resets it to dial immediately.
constexpr std::chrono::milliseconds kReconnectInitial(10);
constexpr std::chrono::milliseconds kReconnectCap(640);

/// Restart-notification ring capacity per reactor; a full ring only
/// delays the redial to the next backoff attempt, so small is fine.
constexpr std::size_t kRestartRingCapacity = 64;

bool carries_campaign(MsgType type) {
  switch (type) {
    case MsgType::kJoin:
    case MsgType::kContribute:
    case MsgType::kReward:
    case MsgType::kRewardsBatch:
    case MsgType::kAudit:
    case MsgType::kStats:
    case MsgType::kEventBatch:
    case MsgType::kRewardAt:
      return true;
    default:
      return false;
  }
}

}  // namespace

// --- RouterReactor ----------------------------------------------------

/// One router reactor thread: an EventLoop (net/event_loop.h) carries the
/// client sessions; the reactor peeks each frame's campaign, relays it
/// over its pooled backend connection to the owning shard, and answers
/// SHARD_MAP / SERVER_STATS / SHUTDOWN itself.
class RouterReactor final : public net::LoopHandler {
 public:
  enum Counter : std::size_t {
    kRequestsRouted,
    kResponsesRelayed,
    kAnsweredLocally,
    kShardDownErrors,
    kBackendFailures,
    kBackendReconnects,
    kStatsResets,
    kCounterCount,
  };

  /// One SERVER_STATS fan-out in flight: a leg per shard; the summed
  /// body (or the first failure's error frame) is delivered to the
  /// client once every leg resolved.
  struct StatsJoin {
    net::ResponseSlot slot;
    std::size_t remaining = 0;
    bool failed = false;
    std::string error_payload;  ///< first failing leg's response
    ServerStatsBody sum;
  };

  /// One routed frame awaiting its backend response. Workers answer
  /// strictly in request order per connection, so a FIFO of these per
  /// backend is the whole correlation state.
  struct Pending {
    net::ResponseSlot slot;  ///< the client slot the response fills
    std::shared_ptr<StatsJoin> stats;  ///< non-null: a fan-out leg
  };

  /// One pooled, pipelined connection to a shard worker.
  struct Backend {
    std::uint32_t shard = 0;
    net::Endpoint address;
    std::string endpoint;  ///< original "host:port" for error frames
    int fd = -1;
    /// The epoll mask registered for fd (set by each dial's
    /// EPOLL_CTL_ADD); update_backend_interest() skips an unchanged one.
    std::uint32_t events = 0;
    bool connecting = false;
    bool ever_connected = false;
    FrameDecoder decoder;
    std::string out;
    std::size_t out_sent = 0;
    std::deque<Pending> pending;
    net::Backoff backoff{kReconnectInitial, kReconnectCap};
    double next_attempt = 0.0;  ///< monotonic deadline; 0 = dial now
    bool touched = false;
    /// Last stats_seq observed from this worker (restart detection).
    std::uint64_t last_stats_seq = 0;

    bool connected() const { return fd >= 0 && !connecting; }
    std::size_t out_bytes() const { return out.size() - out_sent; }
    std::uint32_t wanted_events() const {
      return EPOLLIN | (connecting || out_bytes() > 0 ? EPOLLOUT : 0u);
    }
  };

  RouterReactor(Router& router, std::uint16_t port);
  ~RouterReactor();

  EventLoop& loop() { return loop_; }
  const EventLoop& loop() const { return loop_; }

  /// Supervisor monitor thread -> this reactor: worker `shard` came
  /// back; redial without waiting out the backoff.
  void push_restart(std::uint32_t shard) {
    // A full ring only delays the redial to the next backoff attempt.
    restart_ring_.push(std::uint32_t{shard});
    loop_.wake();
  }

  /// Dials every shard, then runs the loop until the drain completes.
  void run();

  std::uint64_t counter(Counter c) const {
    return counters_[c].load(std::memory_order_relaxed);
  }

  // net::LoopHandler
  void on_frame(Session& session, std::uint64_t seq,
                std::string_view payload) override;
  void on_fd_ready(int fd, std::uint32_t events) override;
  void on_tick() override;
  int timeout_ms() const override;

 private:
  void count(Counter c, std::uint64_t n = 1) {
    counters_[c].fetch_add(n, std::memory_order_relaxed);
  }

  std::uint32_t shard_of(std::uint32_t campaign) const {
    return campaign %
           static_cast<std::uint32_t>(backends_.size());
  }

  void serve_shard_map(Session& session, std::uint64_t seq);
  void serve_server_stats(Session& session, std::uint64_t seq,
                          std::string_view payload);
  void handle_stats_leg(Backend& backend, const Pending& pending,
                        std::string_view payload);
  void complete_stats(StatsJoin& join);
  void forward(Backend& backend, std::string_view payload,
               Pending&& pending);
  void deliver_error(Session& session, std::uint64_t seq, ErrorCode code,
                     std::string message);

  void start_connect(Backend& backend);
  void on_backend_connected(Backend& backend);
  void on_backend_readable(Backend& backend);
  void on_backend_writable(Backend& backend);
  void fail_backend(Backend& backend, const std::string& reason);
  void schedule_reconnect(Backend& backend);
  void flush_backend(Backend& backend);
  void update_backend_interest(Backend& backend);
  Response shard_down(const Backend& backend, const std::string& reason);
  void drain_restart_ring();

  Router& router_;
  EventLoop loop_;
  std::vector<Backend> backends_;  ///< indexed by shard
  std::unordered_map<int, std::size_t> backend_by_fd_;
  /// Supervisor restart notifications (producer: monitor thread).
  net::SpscRing<std::uint32_t> restart_ring_{kRestartRingCapacity};
  std::atomic<std::uint64_t> counters_[kCounterCount] = {};
};

RouterReactor::RouterReactor(Router& router, std::uint16_t port)
    : router_(router),
      loop_(*this, EventLoop::Options{
                       .host = router.config_.host,
                       .port = port,
                       .idle_timeout_seconds =
                           router.config_.idle_timeout_seconds,
                       .max_write_buffer = router.config_.max_write_buffer,
                       .owner = "Router"}) {
  backends_.resize(router_.config_.shards.size());
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    Backend& backend = backends_[i];
    backend.shard = static_cast<std::uint32_t>(i);
    backend.endpoint = router_.config_.shards[i];
    backend.address = net::parse_endpoint(backend.endpoint);
  }
}

RouterReactor::~RouterReactor() {
  for (Backend& backend : backends_) {
    if (backend.fd >= 0) {
      ::close(backend.fd);
    }
  }
}

int RouterReactor::timeout_ms() const {
  const double now = monotonic_seconds();
  double deadline_ms = -1.0;
  for (const Backend& backend : backends_) {
    if (backend.fd >= 0) {
      continue;  // up or dialling: epoll will say
    }
    const double wait_ms = (backend.next_attempt - now) * 1000.0;
    if (wait_ms <= 0.0) {
      return 0;  // a redial is due right now
    }
    if (deadline_ms < 0.0 || wait_ms < deadline_ms) {
      deadline_ms = wait_ms;
    }
  }
  return deadline_ms < 0.0 ? -1
                           : std::max(1, static_cast<int>(deadline_ms) + 1);
}

void RouterReactor::run() {
  // Dial every shard up front; failures land on the backoff schedule.
  for (Backend& backend : backends_) {
    start_connect(backend);
  }
  loop_.run();
}

void RouterReactor::on_fd_ready(int fd, std::uint32_t events) {
  const auto backend_it = backend_by_fd_.find(fd);
  if (backend_it == backend_by_fd_.end()) {
    return;
  }
  Backend& backend = backends_[backend_it->second];
  if (backend.fd != fd) {
    return;  // replaced earlier this pass
  }
  if (events & (EPOLLERR | EPOLLHUP)) {
    fail_backend(backend, "connection to worker lost");
    return;
  }
  if (events & EPOLLOUT) {
    on_backend_writable(backend);
  }
  if (backend.fd == fd && (events & EPOLLIN)) {
    on_backend_readable(backend);
  }
}

void RouterReactor::on_tick() {
  drain_restart_ring();
  const double now = monotonic_seconds();
  bool stalled = false;
  for (Backend& backend : backends_) {
    if (backend.fd < 0 && now >= backend.next_attempt) {
      start_connect(backend);
    }
    if (backend.touched) {
      backend.touched = false;
      if (backend.connected()) {
        flush_backend(backend);
      }
    }
    stalled = stalled ||
              backend.out_bytes() > router_.config_.max_backend_buffer;
  }
  // Any backend past max_backend_buffer stalls reads on every session
  // (coarse head-of-line backpressure; docs/sharding.md).
  loop_.set_reads_paused(stalled);
}

void RouterReactor::on_frame(Session& session, std::uint64_t seq,
                             std::string_view payload) {
  // The routing peek: type byte + (for campaign frames) the campaign
  // id. Everything else in the payload is the worker's business — the
  // frame crosses the router byte-for-byte, so a malformed body earns
  // its kBadRequest from the worker and the error frame passes back
  // through unchanged.
  const MsgType type = static_cast<MsgType>(
      static_cast<std::uint8_t>(payload[0]));
  if (carries_campaign(type)) {
    if (payload.size() < 5) {
      loop_.count_protocol_error();
      deliver_error(session, seq, ErrorCode::kBadRequest,
                    "message body truncated");
      return;
    }
    const std::uint32_t campaign =
        le::load<std::uint32_t>(payload.data() + 1);
    if (campaign >= router_.config_.campaigns) {
      deliver_error(session, seq, ErrorCode::kUnknownCampaign,
                    "unknown campaign " + std::to_string(campaign));
      return;
    }
    Backend& backend = backends_[shard_of(campaign)];
    if (!backend.connected()) {
      count(kShardDownErrors);
      loop_.deliver(session, seq,
                    shard_down(backend, "no connection to worker"));
      return;
    }
    Pending pending;
    pending.slot = session.slot(seq);
    forward(backend, payload, std::move(pending));
    count(kRequestsRouted);
    return;
  }
  switch (type) {
    case MsgType::kShutdown:
      if (router_.config_.allow_remote_shutdown) {
        router_.request_shutdown();
        loop_.deliver(session, seq, Response{});  // kOk
        count(kAnsweredLocally);
      } else {
        deliver_error(session, seq, ErrorCode::kRejected,
                      "remote shutdown is disabled");
      }
      return;
    case MsgType::kServerStats:
      serve_server_stats(session, seq, payload);
      return;
    case MsgType::kShardMap:
      serve_shard_map(session, seq);
      return;
    default:
      if (net::is_replication(type)) {
        // A replication stream is one shard's WAL; fanning it through
        // the router would splice shard histories. Replicas dial their
        // shard's worker directly (docs/sharding.md).
        deliver_error(session, seq, ErrorCode::kRejected,
                      "replication streams must target a shard worker "
                      "directly, not the router");
        return;
      }
      loop_.count_protocol_error();
      deliver_error(
          session, seq, ErrorCode::kBadRequest,
          "unknown request type " +
              std::to_string(static_cast<std::uint8_t>(type)));
      return;
  }
}

void RouterReactor::serve_shard_map(Session& session, std::uint64_t seq) {
  Response response;
  response.status = Status::kOkShardMap;
  response.shard_map.campaigns = router_.config_.campaigns;
  response.shard_map.shards.reserve(backends_.size());
  for (const Backend& backend : backends_) {
    net::ShardMapEntry entry;
    entry.endpoint = backend.endpoint;
    entry.healthy = backend.connected() ? 1 : 0;
    entry.restarts = router_.restart_counter_
                         ? router_.restart_counter_(backend.shard)
                         : 0;
    response.shard_map.shards.push_back(std::move(entry));
  }
  loop_.deliver(session, seq, response);
  count(kAnsweredLocally);
}

void RouterReactor::serve_server_stats(Session& session, std::uint64_t seq,
                                       std::string_view payload) {
  // Fail fast before fanning out: a partial sum that silently omits a
  // dead shard would under-report the deployment.
  for (Backend& backend : backends_) {
    if (!backend.connected()) {
      count(kShardDownErrors);
      loop_.deliver(session, seq,
                    shard_down(backend, "no connection to worker"));
      return;
    }
  }
  auto join = std::make_shared<StatsJoin>();
  join->slot = session.slot(seq);
  join->remaining = backends_.size();
  join->sum.stats_seq =
      router_.stats_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  for (Backend& backend : backends_) {
    Pending pending;
    pending.stats = join;
    forward(backend, payload, std::move(pending));
  }
  count(kAnsweredLocally);
}

void RouterReactor::handle_stats_leg(Backend& backend,
                                     const Pending& pending,
                                     std::string_view payload) {
  StatsJoin& join = *pending.stats;
  --join.remaining;
  try {
    const Response response = net::decode_response(payload);
    if (response.status != Status::kOkServerStats) {
      if (!join.failed) {
        join.failed = true;
        join.error_payload = payload;  // pass the error through
      }
    } else {
      const ServerStatsBody& s = response.server_stats;
      if (backend.last_stats_seq != 0 &&
          s.stats_seq <= backend.last_stats_seq) {
        // The worker restarted between polls: every cumulative counter
        // below restarted from zero. Count it instead of pretending the
        // deployment's totals went backwards.
        count(kStatsResets);
      }
      backend.last_stats_seq = s.stats_seq;
      // Every counter adds across shards except the role flag and the
      // per-process poll counter (the router stamps its own).
      for (const net::ServerStatsField& field : net::kServerStatsFields) {
        if (field.member != &ServerStatsBody::role &&
            field.member != &ServerStatsBody::stats_seq) {
          join.sum.*field.member += s.*field.member;
        }
      }
    }
  } catch (const net::ProtocolError&) {
    if (!join.failed) {
      join.failed = true;
      join.error_payload = net::encode_response(
          net::error_response(ErrorCode::kBadRequest,
                              "undecodable SERVER_STATS from shard " +
                                  std::to_string(backend.shard)));
    }
  }
  if (join.remaining == 0) {
    complete_stats(join);
  }
}

void RouterReactor::complete_stats(StatsJoin& join) {
  Session* session = loop_.session_for(join.slot);
  if (session == nullptr) {
    return;
  }
  if (join.failed) {
    loop_.deliver(*session, join.slot.seq, [&join](std::string& out) {
      net::append_frame(out, join.error_payload);
    });
    return;
  }
  Response response;
  response.status = Status::kOkServerStats;
  response.server_stats = join.sum;
  loop_.deliver(*session, join.slot.seq, response);
}

void RouterReactor::forward(Backend& backend, std::string_view payload,
                            Pending&& pending) {
  net::append_frame(backend.out, payload);
  backend.pending.push_back(std::move(pending));
  backend.touched = true;
}

// --- Backend pool -----------------------------------------------------

void RouterReactor::start_connect(Backend& backend) {
  backend.fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (backend.fd < 0) {
    schedule_reconnect(backend);
    return;
  }
  const int one = 1;
  ::setsockopt(backend.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(backend.address.port);
  if (::inet_pton(AF_INET, backend.address.host.c_str(), &addr.sin_addr) !=
      1) {
    // Validated at Router construction; unreachable without a raced
    // config mutation. Keep retrying rather than crash the proxy.
    ::close(backend.fd);
    backend.fd = -1;
    schedule_reconnect(backend);
    return;
  }
  const int rc = ::connect(
      backend.fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(backend.fd);
    backend.fd = -1;
    schedule_reconnect(backend);
    return;
  }
  backend.connecting = rc != 0;
  backend.events = backend.wanted_events();
  if (!loop_.ctl(EPOLL_CTL_ADD, backend.fd, backend.events)) {
    ::close(backend.fd);
    backend.fd = -1;
    schedule_reconnect(backend);
    return;
  }
  backend_by_fd_[backend.fd] = backend.shard;
  if (!backend.connecting) {
    on_backend_connected(backend);
  }
}

void RouterReactor::on_backend_connected(Backend& backend) {
  backend.connecting = false;
  backend.backoff.reset();
  if (backend.ever_connected) {
    count(kBackendReconnects);
  }
  backend.ever_connected = true;
  update_backend_interest(backend);
}

void RouterReactor::on_backend_writable(Backend& backend) {
  if (backend.connecting) {
    int error = 0;
    socklen_t len = sizeof(error);
    ::getsockopt(backend.fd, SOL_SOCKET, SO_ERROR, &error, &len);
    if (error != 0) {
      fail_backend(backend,
                   std::string("connect: ") + std::strerror(error));
      return;
    }
    on_backend_connected(backend);
  }
  flush_backend(backend);
}

void RouterReactor::on_backend_readable(Backend& backend) {
  const io::IoStatus status = net::recv_frames(backend.fd, backend.decoder);
  if (status == io::IoStatus::kEof || status == io::IoStatus::kError) {
    // In-flight requests fail over to kShardDown.
    fail_backend(backend, status == io::IoStatus::kEof
                              ? "worker closed the connection"
                              : std::string("recv: ") +
                                    std::strerror(errno));
    return;
  }

  // Frames are received in place and relayed as views of the decoder's
  // buffer: each one is copied once, into the session's output.
  std::string_view frame;
  while (backend.decoder.next_frame(&frame)) {
    if (backend.pending.empty()) {
      fail_backend(backend, "unsolicited response from worker");
      return;
    }
    Pending pending = std::move(backend.pending.front());
    backend.pending.pop_front();
    if (pending.stats != nullptr) {
      handle_stats_leg(backend, pending, frame.substr(4));
      continue;
    }
    if (Session* session = loop_.session_for(pending.slot)) {
      // Byte-for-byte relay of the whole frame, never re-encoded —
      // write-ack tokens, NOT_PRIMARY redirects and error details cross
      // unchanged.
      loop_.deliver(*session, pending.slot.seq,
                    [frame](std::string& out) { out += frame; });
      count(kResponsesRelayed);
    }
  }
  if (backend.decoder.corrupt()) {
    fail_backend(backend, "worker stream corrupt: " +
                              backend.decoder.corruption());
  }
}

Response RouterReactor::shard_down(const Backend& backend,
                                  const std::string& reason) {
  return net::error_response(
      ErrorCode::kShardDown, "shard " + std::to_string(backend.shard) +
                                 " (" + backend.endpoint +
                                 ") is down: " + reason);
}

void RouterReactor::fail_backend(Backend& backend,
                                 const std::string& reason) {
  if (backend.fd >= 0) {
    backend_by_fd_.erase(backend.fd);
    loop_.ctl(EPOLL_CTL_DEL, backend.fd, 0);
    ::close(backend.fd);
    backend.fd = -1;
  }
  const bool was_connected = backend.ever_connected;
  backend.connecting = false;
  backend.decoder = FrameDecoder();
  backend.out.clear();
  backend.out_sent = 0;
  if (was_connected && !backend.pending.empty()) {
    count(kShardDownErrors, backend.pending.size());
  }
  // Every in-flight request fails fast. A write the worker had already
  // applied but not yet acknowledged is reported down — the standard
  // at-most-once ambiguity of a mid-flight failure (docs/sharding.md).
  for (Pending& pending : backend.pending) {
    if (pending.stats != nullptr) {
      StatsJoin& join = *pending.stats;
      --join.remaining;
      if (!join.failed) {
        join.failed = true;
        join.error_payload = net::encode_response(shard_down(backend, reason));
      }
      if (join.remaining == 0) {
        complete_stats(join);
      }
      continue;
    }
    if (Session* session = loop_.session_for(pending.slot)) {
      loop_.deliver(*session, pending.slot.seq, shard_down(backend, reason));
    }
  }
  backend.pending.clear();
  if (was_connected) {
    count(kBackendFailures);
  }
  schedule_reconnect(backend);
}

void RouterReactor::schedule_reconnect(Backend& backend) {
  backend.next_attempt =
      monotonic_seconds() +
      std::chrono::duration<double>(backend.backoff.next()).count();
}

void RouterReactor::flush_backend(Backend& backend) {
  while (backend.out_bytes() > 0) {
    std::size_t sent = 0;
    const io::IoStatus status =
        io::send_some(backend.fd, backend.out.data() + backend.out_sent,
                      backend.out_bytes(), &sent);
    if (status == io::IoStatus::kProgress) {
      backend.out_sent += sent;
      continue;
    }
    if (status == io::IoStatus::kWouldBlock) {
      break;
    }
    fail_backend(backend,
                 std::string("send: ") + std::strerror(errno));
    return;
  }
  if (backend.out_sent == backend.out.size()) {
    backend.out.clear();
    backend.out_sent = 0;
  } else if (backend.out_sent > 4096 &&
             backend.out_sent * 2 > backend.out.size()) {
    backend.out.erase(0, backend.out_sent);
    backend.out_sent = 0;
  }
  update_backend_interest(backend);
}

void RouterReactor::update_backend_interest(Backend& backend) {
  const std::uint32_t events = backend.wanted_events();
  if (backend.fd < 0 || events == backend.events) {
    return;
  }
  if (loop_.ctl(EPOLL_CTL_MOD, backend.fd, events)) {
    backend.events = events;  // a failed MOD is retried on the next call
  }
}

void RouterReactor::drain_restart_ring() {
  std::uint32_t shard = 0;
  while (restart_ring_.pop(&shard)) {
    if (shard >= backends_.size()) {
      continue;
    }
    Backend& backend = backends_[shard];
    if (backend.fd < 0) {
      // The common case: the crash was seen via TCP first and the
      // backoff is ticking. The worker is back — dial immediately.
      backend.backoff.reset();
      backend.next_attempt = 0.0;
    }
    // Still-connected case: the old instance's death surfaces through
    // TCP (EPOLLHUP / recv EOF) on its own; tearing down here could
    // race a connection already re-established to the new worker.
  }
}

void RouterReactor::deliver_error(Session& session, std::uint64_t seq,
                                  ErrorCode code, std::string message) {
  loop_.deliver(session, seq, net::error_response(code, std::move(message)));
  count(kAnsweredLocally);
}

// --- Router -----------------------------------------------------------

Router::Router(RouterConfig config) : config_(std::move(config)) {
  if (config_.shards.empty()) {
    throw std::invalid_argument("Router: need at least one shard");
  }
  if (config_.campaigns == 0) {
    throw std::invalid_argument("Router: need at least one campaign");
  }
  if (config_.reactors == 0) {
    config_.reactors = 1;
  }
  reactors_.reserve(config_.reactors);
  reactors_.push_back(std::make_unique<RouterReactor>(*this, config_.port));
  port_ = reactors_[0]->loop().port();
  for (std::size_t i = 1; i < config_.reactors; ++i) {
    reactors_.push_back(std::make_unique<RouterReactor>(*this, port_));
  }
}

Router::~Router() = default;

void Router::run() {
  const std::exception_ptr error = net::run_on_threads(
      reactors_.size(), [this](std::size_t i) { reactors_[i]->run(); },
      [this] { request_shutdown(); });
  if (error) {
    std::rethrow_exception(error);
  }
}

void Router::request_shutdown() {
  for (const auto& reactor : reactors_) {
    reactor->loop().request_drain();
  }
}

void Router::note_shard_restarted(std::uint32_t shard) {
  for (const auto& reactor : reactors_) {
    reactor->push_restart(shard);
  }
}

void Router::set_restart_counter(
    std::function<std::uint64_t(std::uint32_t)> counter) {
  restart_counter_ = std::move(counter);
}

RouterCounters Router::counters() const {
  RouterCounters total;
  for (const auto& reactor : reactors_) {
    const EventLoop& loop = reactor->loop();
    total.sessions_accepted += loop.counter(EventLoop::kSessionsAccepted);
    total.sessions_closed += loop.counter(EventLoop::kSessionsClosed);
    total.protocol_errors += loop.counter(EventLoop::kProtocolErrors);
    total.sessions_timed_out += loop.counter(EventLoop::kSessionsTimedOut);
    total.backpressure_stalls +=
        loop.counter(EventLoop::kBackpressureStalls);
    // A corrupt stream's one error frame is answered by the router.
    total.requests_answered_locally +=
        loop.counter(EventLoop::kCorruptStreams) +
        reactor->counter(RouterReactor::kAnsweredLocally);
    total.requests_routed +=
        reactor->counter(RouterReactor::kRequestsRouted);
    total.responses_relayed +=
        reactor->counter(RouterReactor::kResponsesRelayed);
    total.shard_down_errors +=
        reactor->counter(RouterReactor::kShardDownErrors);
    total.backend_failures +=
        reactor->counter(RouterReactor::kBackendFailures);
    total.backend_reconnects +=
        reactor->counter(RouterReactor::kBackendReconnects);
    total.stats_resets_detected +=
        reactor->counter(RouterReactor::kStatsResets);
  }
  return total;
}

std::size_t Router::reactor_count() const { return reactors_.size(); }

}  // namespace itree::router
