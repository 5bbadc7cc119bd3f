#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <exception>
#include <limits>
#include <map>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "net/spsc_ring.h"
#include "util/bench_json.h"  // monotonic_seconds
#include "util/io.h"
#include "util/parallel.h"

namespace itree::net {

namespace {

/// A peer that neither reads nor disconnects could stall a graceful
/// drain forever; after this many seconds the drain force-closes.
constexpr double kDrainDeadlineSeconds = 5.0;

/// Response chunks are coalesced up to this size, then a fresh chunk
/// starts; a flush gathers up to kMaxFlushIov chunks into one sendmsg.
constexpr std::size_t kOutChunkBytes = 256 * 1024;
constexpr int kMaxFlushIov = 64;

/// Cross-reactor ring capacity (entries per ordered reactor pair). A
/// full ring never deadlocks: the stalled producer keeps draining its
/// own inbound rings while it retries (see forward_request).
constexpr std::size_t kRingCapacity = 1024;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

// --- Cross-reactor messages -------------------------------------------

/// Identifies the response slot at the origin reactor: session fd +
/// serial (guards against fd reuse) + the per-session request sequence
/// used to release responses in request order.
struct CrossToken {
  int fd = -1;
  std::uint64_t serial = 0;
  std::uint64_t seq = 0;
};

struct CrossRequest {
  std::uint32_t origin = 0;  ///< reactor index that owns the session
  CrossToken token;
  Request request;
};

struct CrossResponse {
  CrossToken token;
  Response response;
};

/// One unit of campaign work: a request owned by this reactor, either
/// decoded locally (origin == self) or forwarded from a peer.
struct ReactorWork {
  std::uint32_t origin = 0;
  CrossToken token;
  Request request;
  Response response;
};

// --- Reactor ----------------------------------------------------------

class Reactor {
 public:
  /// Per-reactor counter slots; Server::counters() sums them across
  /// reactors into the public ServerCounters struct.
  enum Counter : std::size_t {
    kSessionsAccepted,
    kSessionsClosed,
    kRequestsServed,
    kProtocolErrors,
    kSessionsTimedOut,
    kBackpressureStalls,
    kEventsBatched,
    kBatchFlushes,
    kRequestsForwarded,
    kEventBatches,
    kTokenWaits,
    kTokenBounces,
    kWritesRedirected,
    kCounterCount,
  };

  struct Session {
    int fd = -1;
    std::uint64_t serial = 0;
    FrameDecoder decoder;
    /// Encoded responses awaiting the wire, flushed with vectored
    /// sendmsg; front_sent is the prefix of the front chunk already
    /// sent, out_bytes the total pending across chunks.
    std::deque<std::string> outq;
    std::size_t front_sent = 0;
    std::size_t out_bytes = 0;
    /// Request sequencing: every decoded request takes next_seq;
    /// responses are released to the wire strictly in sequence, with
    /// out-of-order (cross-reactor) completions parked in `held`.
    std::uint64_t next_seq = 0;
    std::uint64_t next_send = 0;
    std::map<std::uint64_t, Response> held;
    double last_activity = 0.0;
    bool reading = true;         ///< EPOLLIN registered
    bool want_write = false;     ///< EPOLLOUT registered
    bool close_after_flush = false;
    bool broken = false;         ///< hard error / EOF: close this tick
    bool touched = false;        ///< queued output since the last flush

    std::size_t pending_bytes() const { return out_bytes; }
    /// True when every assigned sequence has been released to outq.
    bool fully_released() const {
      return next_send == next_seq && held.empty();
    }
  };

  Reactor(Server& server, std::size_t index, std::uint16_t port);
  ~Reactor();

  std::uint16_t bound_port() const { return bound_port_; }

  /// Async-signal-safe: a single eventfd write.
  void wake() {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(wake_fd_, &one, sizeof(one));
  }

  void run();

  std::uint64_t counter(Counter c) const {
    return counters_[c].load(std::memory_order_relaxed);
  }

 private:
  friend class Server;

  void count(Counter c, std::uint64_t n = 1) {
    counters_[c].fetch_add(n, std::memory_order_relaxed);
  }

  std::size_t reactor_count() const;
  std::uint32_t owner_of(std::uint32_t campaign) const;

  void accept_ready();
  void on_readable(int fd);
  void on_writable(int fd);
  void apply_feed();
  void service_parked();
  void dispatch(std::uint32_t origin, const CrossToken& token,
                Response&& response);
  void route(Session& session, std::uint64_t seq, Request&& request);
  void forward_request(std::uint32_t owner, CrossRequest&& message);
  void push_response(std::uint32_t origin, CrossResponse&& message);
  bool drain_request_rings();
  void drain_response_rings();
  void flush_wakes();
  void process_tick();
  void deliver(Session& session, std::uint64_t seq, Response&& response);
  void release(Session& session, const Response& response);
  void append_response(Session& session, const Response& response);
  void flush(Session& session);
  void flush_touched();
  void maybe_resume_reading(Session& session);
  void update_interest(Session& session);
  Session* session_for(const CrossToken& token);
  void close_session(int fd);
  void harvest_idle(double now);
  void begin_drain();

  Server& server_;
  const std::size_t index_;
  std::uint16_t bound_port_ = 0;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  bool draining_ = false;
  double drain_started_ = 0.0;

  std::uint64_t next_serial_ = 0;  ///< distinguishes reused fds
  std::vector<std::unique_ptr<Session>> sessions_;  ///< indexed by fd
  /// This tick's campaign work, in arrival order (local + forwarded).
  std::vector<ReactorWork> inbox_;
  /// Replica mode: REWARD_AT queries whose token is beyond the applied
  /// floor, waiting (until `deadline`) for the feed to catch up.
  struct ParkedQuery {
    std::uint32_t origin = 0;
    CrossToken token;
    Request request;
    double deadline = 0.0;
  };
  std::vector<ParkedQuery> parked_;
  std::vector<ReplicaFeed::Item> feed_items_;  ///< drain scratch buffer
  /// Forwarded requests still awaiting their cross-reactor response.
  std::uint64_t outstanding_ = 0;
  /// Inbound rings, indexed by producing reactor. Entry [index_] is
  /// allocated but unused (a reactor never messages itself).
  std::vector<std::unique_ptr<SpscRing<CrossRequest>>> request_in_;
  std::vector<std::unique_ptr<SpscRing<CrossResponse>>> response_in_;
  /// Targets pushed to since the last flush_wakes() — one eventfd poke
  /// per peer per burst instead of one per message.
  std::vector<std::uint8_t> pushed_since_wake_;
  std::vector<int> touched_;  ///< fds with queued output this pass
  /// Set (permanently) once this reactor can no longer originate
  /// forwards: draining and past its final decode pass. Peers drain
  /// their inbound rings until every reactor has set this.
  std::atomic<bool> forwards_done_{false};
  std::atomic<std::uint64_t> counters_[kCounterCount] = {};
};

Reactor::Reactor(Server& server, std::size_t index, std::uint16_t port)
    : server_(server), index_(index) {
  const std::size_t peers = server_.config_.reactors;
  request_in_.reserve(peers);
  response_in_.reserve(peers);
  for (std::size_t i = 0; i < peers; ++i) {
    request_in_.push_back(
        std::make_unique<SpscRing<CrossRequest>>(kRingCapacity));
    response_in_.push_back(
        std::make_unique<SpscRing<CrossResponse>>(kRingCapacity));
  }
  pushed_since_wake_.assign(peers, 0);

  listen_fd_ =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    fail("socket");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  // Every reactor binds its own listener to the same address; the
  // kernel hashes incoming connections across them.
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, server_.config_.host.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("Server: bad host '" + server_.config_.host +
                             "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 512) != 0) {
    const std::string what = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("Server: cannot listen on " +
                             server_.config_.host + ":" +
                             std::to_string(port) + ": " + what);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                &bound_len);
  bound_port_ = ntohs(bound.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    fail("epoll_create1/eventfd");
  }
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &event);
  event.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &event);
}

Reactor::~Reactor() {
  for (auto& session : sessions_) {
    if (session) {
      ::close(session->fd);
    }
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
  }
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
  }
}

std::size_t Reactor::reactor_count() const {
  return server_.reactors_.size();
}

std::uint32_t Reactor::owner_of(std::uint32_t campaign) const {
  return campaign % static_cast<std::uint32_t>(reactor_count());
}

void Reactor::run() {
  static constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];

  while (true) {
    const bool need_tick =
        draining_ || server_.config_.idle_timeout_seconds > 0;
    // Parked token queries need their deadlines checked even when the
    // feed is silent, so a replica with parked work ticks briskly.
    const int timeout_ms = draining_     ? 20
                           : !parked_.empty() ? 5
                           : (need_tick ? 100 : -1);
    const int ready =
        ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) {
        continue;
      }
      fail("epoll_wait");
    }
    for (int i = 0; i < ready; ++i) {
      const int fd = events[i].data.fd;
      if (fd == listen_fd_) {
        accept_ready();
        continue;
      }
      if (fd == wake_fd_) {
        // Clear-before-drain: any push that lands after this read
        // re-arms the eventfd, so the poke is never lost.
        std::uint64_t drained = 0;
        [[maybe_unused]] const ssize_t n =
            ::read(wake_fd_, &drained, sizeof(drained));
        continue;
      }
      Session* session = (static_cast<std::size_t>(fd) < sessions_.size())
                             ? sessions_[fd].get()
                             : nullptr;
      if (session == nullptr) {
        continue;  // closed earlier this tick
      }
      if (events[i].events & (EPOLLERR | EPOLLHUP)) {
        session->broken = true;
        continue;
      }
      if ((events[i].events & EPOLLIN) && !draining_) {
        on_readable(fd);
      }
      if (events[i].events & EPOLLOUT) {
        on_writable(fd);
      }
    }

    drain_request_rings();
    apply_feed();
    process_tick();
    service_parked();
    drain_response_rings();
    flush_touched();

    // Sweep sessions that broke or finished their final flush.
    for (std::size_t fd = 0; fd < sessions_.size(); ++fd) {
      Session* session = sessions_[fd].get();
      if (session != nullptr &&
          (session->broken ||
           (session->close_after_flush && session->pending_bytes() == 0 &&
            session->fully_released()))) {
        close_session(static_cast<int>(fd));
      }
    }

    const double now = monotonic_seconds();
    if (server_.config_.idle_timeout_seconds > 0 && !draining_) {
      harvest_idle(now);
    }

    if (server_.drain_requested_.load(std::memory_order_acquire) &&
        !draining_) {
      begin_drain();
      drain_started_ = now;
    }
    if (draining_) {
      // Reads are off and this pass routed every decoded request, so
      // no further forwards can originate here.
      forwards_done_.store(true, std::memory_order_release);
      const bool deadline =
          now - drain_started_ > kDrainDeadlineSeconds;
      bool sessions_settled = true;
      for (std::size_t fd = 0; fd < sessions_.size(); ++fd) {
        Session* session = sessions_[fd].get();
        if (session == nullptr) {
          continue;
        }
        if (session->pending_bytes() == 0 && session->fully_released()) {
          close_session(static_cast<int>(fd));
        } else if (deadline) {
          close_session(static_cast<int>(fd));
        } else {
          sessions_settled = false;
        }
      }
      bool rings_quiet = outstanding_ == 0;
      for (const auto& reactor : server_.reactors_) {
        rings_quiet =
            rings_quiet &&
            reactor->forwards_done_.load(std::memory_order_acquire);
      }
      for (const auto& ring : request_in_) {
        rings_quiet = rings_quiet && ring->empty();
      }
      if ((sessions_settled && rings_quiet && inbox_.empty()) ||
          deadline) {
        flush_wakes();
        break;
      }
    }
    flush_wakes();
  }
}

void Reactor::accept_ready() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return;
      }
      if (errno == EINTR || errno == ECONNABORTED) {
        continue;
      }
      return;  // EMFILE etc.: drop the pending connection, stay up
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (static_cast<std::size_t>(fd) >= sessions_.size()) {
      sessions_.resize(fd + 1);
    }
    auto session = std::make_unique<Session>();
    session->fd = fd;
    session->serial = ++next_serial_;
    session->last_activity = monotonic_seconds();
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) != 0) {
      ::close(fd);
      continue;
    }
    sessions_[fd] = std::move(session);
    count(kSessionsAccepted);
  }
}

void Reactor::on_readable(int fd) {
  Session& session = *sessions_[fd];
  char buffer[65536];
  bool saw_eof = false;
  while (session.reading) {
    std::size_t received = 0;
    const io::IoStatus status =
        io::recv_some(fd, buffer, sizeof(buffer), &received);
    if (status == io::IoStatus::kProgress) {
      session.decoder.feed(buffer, received);
      session.last_activity = monotonic_seconds();
      if (received < sizeof(buffer)) {
        break;  // likely drained; epoll is level-triggered anyway
      }
      continue;
    }
    if (status == io::IoStatus::kEof) {
      saw_eof = true;
      break;
    }
    if (status == io::IoStatus::kWouldBlock) {
      break;
    }
    session.broken = true;
    return;
  }

  std::string payload;
  while (session.decoder.next(&payload)) {
    const std::uint64_t seq = session.next_seq++;
    try {
      route(session, seq, decode_request(payload));
    } catch (const ProtocolError& error) {
      count(kProtocolErrors);
      deliver(session, seq,
              error_response(ErrorCode::kBadRequest, error.what()));
    }
    if (session.broken) {
      return;
    }
  }
  if (session.decoder.corrupt()) {
    // The stream can no longer be framed: answer once, then hang up.
    count(kProtocolErrors);
    deliver(session, session.next_seq++,
            error_response(ErrorCode::kBadRequest,
                           session.decoder.corruption()));
    session.close_after_flush = true;
    if (session.reading) {
      session.reading = false;
      update_interest(session);
    }
  }
  if (saw_eof) {
    if (session.decoder.buffered() != 0 && !session.decoder.corrupt()) {
      count(kProtocolErrors);  // mid-frame disconnect
    }
    session.broken = true;
  }
}

void Reactor::apply_feed() {
  ReplicaFeed* feed = server_.replica_feed_;
  if (feed == nullptr) {
    return;
  }
  feed_items_.clear();
  if (!feed->drain(index_, &feed_items_)) {
    return;
  }
  std::uint64_t through = 0;
  RecordingService* batching = nullptr;
  std::uint64_t batched = 0;
  for (const ReplicaFeed::Item& item : feed_items_) {
    if (item.is_event) {
      RecordingService* campaign = server_.campaigns_[item.campaign];
      if (campaign != batching) {
        if (batching != nullptr) {
          batching->flush_batch();
          count(kBatchFlushes);
        }
        campaign->begin_batch();
        batching = campaign;
      }
      // A shipped record was validated by the primary; a rejection here
      // means the histories diverged, and the throw fail-stops the
      // replica rather than serving silently wrong rewards.
      campaign->apply(item.event);
      ++batched;
    }
    if (item.through > through) {
      through = item.through;
    }
  }
  if (batching != nullptr) {
    batching->flush_batch();
    count(kBatchFlushes);
  }
  count(kEventsBatched, batched);
  if (through > 0) {
    feed->note_applied(index_, through);
  }
}

void Reactor::service_parked() {
  if (parked_.empty()) {
    return;
  }
  const std::uint64_t floor = server_.replica_feed_->applied_floor();
  const double now = monotonic_seconds();
  std::size_t kept = 0;
  for (ParkedQuery& parked : parked_) {
    if (parked.request.seq <= floor) {
      dispatch(parked.origin, parked.token,
               server_.apply_request(parked.request));
    } else if (draining_ || now > parked.deadline) {
      count(kTokenBounces);
      dispatch(parked.origin, parked.token,
               error_response(
                   ErrorCode::kReplicaLagging,
                   "replica applied seq " + std::to_string(floor) +
                       " has not reached token " +
                       std::to_string(parked.request.seq) +
                       " within the staleness bound"));
    } else {
      parked_[kept++] = std::move(parked);
    }
  }
  parked_.resize(kept);
}

void Reactor::dispatch(std::uint32_t origin, const CrossToken& token,
                       Response&& response) {
  if (origin == index_) {
    Session* session = session_for(token);
    if (session != nullptr && !session->broken) {
      deliver(*session, token.seq, std::move(response));
    }
    return;
  }
  CrossResponse message;
  message.token = token;
  message.response = std::move(response);
  push_response(origin, std::move(message));
}

void Reactor::route(Session& session, std::uint64_t seq,
                    Request&& request) {
  if (request.type == MsgType::kShutdown) {
    if (server_.config_.allow_remote_shutdown) {
      server_.request_shutdown();
      deliver(session, seq, Response{});  // kOk
    } else {
      deliver(session, seq,
              error_response(ErrorCode::kRejected,
                             "remote shutdown is disabled"));
    }
    return;
  }
  if (request.type == MsgType::kServerStats) {
    Response response;
    response.status = Status::kOkServerStats;
    response.server_stats = server_.live_server_stats();
    deliver(session, seq, std::move(response));
    return;
  }
  if (request.type == MsgType::kShardMap) {
    // Shard maps are a router concept; a worker answering one would
    // invent a topology it does not have.
    deliver(session, seq,
            error_response(ErrorCode::kBadRequest,
                           "SHARD_MAP: this endpoint is not a router"));
    return;
  }
  if (request.type == MsgType::kReplHello ||
      request.type == MsgType::kReplSnapshot ||
      request.type == MsgType::kReplSegment ||
      request.type == MsgType::kReplHeartbeat) {
    // Served inline on whichever reactor accepted the replica's
    // connection; the storage engine's own locking makes this safe.
    deliver(session, seq, server_.handle_replication(request));
    return;
  }
  if (server_.replica_feed_ != nullptr &&
      (request.type == MsgType::kJoin ||
       request.type == MsgType::kContribute ||
       request.type == MsgType::kEventBatch)) {
    count(kWritesRedirected);
    deliver(session, seq,
            error_response(ErrorCode::kNotPrimary,
                           server_.replica_feed_->primary_endpoint()));
    return;
  }
  if (request.campaign >= server_.campaigns_.size()) {
    deliver(session, seq,
            error_response(ErrorCode::kUnknownCampaign,
                           "unknown campaign " +
                               std::to_string(request.campaign)));
    return;
  }
  if (request.type == MsgType::kEventBatch) {
    count(kEventBatches);
  }
  const std::uint32_t owner = owner_of(request.campaign);
  CrossToken token{session.fd, session.serial, seq};
  if (owner == index_) {
    ReactorWork work;
    work.origin = static_cast<std::uint32_t>(index_);
    work.token = token;
    work.request = std::move(request);
    inbox_.push_back(std::move(work));
    return;
  }
  CrossRequest message;
  message.origin = static_cast<std::uint32_t>(index_);
  message.token = token;
  message.request = std::move(request);
  forward_request(owner, std::move(message));
}

void Reactor::forward_request(std::uint32_t owner, CrossRequest&& message) {
  ++outstanding_;
  count(kRequestsForwarded);
  SpscRing<CrossRequest>& ring =
      *server_.reactors_[owner]->request_in_[index_];
  while (!ring.push(std::move(message))) {
    // Owner's inbound ring is full. Keep the system live while
    // retrying: consume our own inbound traffic (responses free peers
    // stalled on our rings; requests merely append to inbox_) and make
    // sure the owner is awake to drain.
    pushed_since_wake_[owner] = 1;
    flush_wakes();
    drain_response_rings();
    drain_request_rings();
    std::this_thread::yield();
  }
  pushed_since_wake_[owner] = 1;
}

void Reactor::push_response(std::uint32_t origin, CrossResponse&& message) {
  SpscRing<CrossResponse>& ring =
      *server_.reactors_[origin]->response_in_[index_];
  while (!ring.push(std::move(message))) {
    pushed_since_wake_[origin] = 1;
    flush_wakes();
    drain_response_rings();
    drain_request_rings();
    std::this_thread::yield();
  }
  pushed_since_wake_[origin] = 1;
}

bool Reactor::drain_request_rings() {
  bool any = false;
  CrossRequest message;
  for (auto& ring : request_in_) {
    while (ring->pop(&message)) {
      ReactorWork work;
      work.origin = message.origin;
      work.token = message.token;
      work.request = std::move(message.request);
      inbox_.push_back(std::move(work));
      any = true;
    }
  }
  return any;
}

void Reactor::drain_response_rings() {
  CrossResponse message;
  for (auto& ring : response_in_) {
    while (ring->pop(&message)) {
      --outstanding_;
      Session* session = session_for(message.token);
      if (session != nullptr && !session->broken) {
        deliver(*session, message.token.seq,
                std::move(message.response));
      }
    }
  }
}

void Reactor::flush_wakes() {
  for (std::size_t t = 0; t < pushed_since_wake_.size(); ++t) {
    if (pushed_since_wake_[t]) {
      pushed_since_wake_[t] = 0;
      server_.reactors_[t]->wake();
    }
  }
}

void Reactor::process_tick() {
  if (inbox_.empty()) {
    return;
  }
  std::vector<ReactorWork> tick;
  tick.swap(inbox_);
  if (server_.replica_feed_ != nullptr) {
    // Read-your-writes: a REWARD_AT whose token is past the applied
    // floor parks until the feed catches up (or the staleness deadline
    // bounces it). Queries are order-free against each other, so
    // parking one does not reorder its session's responses — the
    // per-session sequencer still releases answers in request order.
    const std::uint64_t floor = server_.replica_feed_->applied_floor();
    const double deadline =
        monotonic_seconds() + server_.serve_stale_seconds_;
    std::size_t kept = 0;
    for (ReactorWork& work : tick) {
      if (work.request.type == MsgType::kRewardAt &&
          work.request.seq > floor) {
        count(kTokenWaits);
        parked_.push_back(ParkedQuery{work.origin, work.token,
                                      std::move(work.request), deadline});
      } else {
        tick[kept++] = std::move(work);
      }
    }
    tick.resize(kept);
    if (tick.empty()) {
      return;
    }
  }
  // Group work by campaign; each group keeps arrival order, so a
  // campaign's event sequence is independent of reactor placement and
  // thread count.
  std::unordered_map<std::uint32_t, std::vector<std::size_t>> groups;
  std::vector<std::uint32_t> order;
  for (std::size_t i = 0; i < tick.size(); ++i) {
    const std::uint32_t campaign = tick[i].request.campaign;
    auto [it, inserted] = groups.try_emplace(campaign);
    if (inserted) {
      order.push_back(campaign);
    }
    it->second.push_back(i);
  }
  // Dirty-set batching: a burst of events for one campaign defers its
  // per-event ancestor walks and replays them in one coalesced pass —
  // flushed before any query frame in the burst, so answers are always
  // current (and bit-identical to per-event processing; see
  // core/incremental.h). EVENT_BATCH frames join the same coalesced
  // pass. Stats are per-group locals summed afterwards: groups may run
  // on pool threads and must not race on the counters.
  struct GroupStats {
    std::uint64_t batched = 0;
    std::uint64_t flushes = 0;
  };
  std::vector<GroupStats> group_stats(order.size());
  const auto run_group = [&](std::size_t g) {
    const std::uint32_t campaign_index = order[g];
    RecordingService* campaign = server_.campaigns_[campaign_index];
    bool batching = false;
    for (const std::size_t i : groups[campaign_index]) {
      ReactorWork& work = tick[i];
      const MsgType type = work.request.type;
      const bool is_event = type == MsgType::kJoin ||
                            type == MsgType::kContribute ||
                            type == MsgType::kEventBatch;
      if (is_event && !batching) {
        campaign->begin_batch();
        batching = true;
      } else if (!is_event && batching) {
        campaign->flush_batch();
        batching = false;
        ++group_stats[g].flushes;
      }
      work.response = server_.apply_request(work.request);
      if (is_event && batching) {
        if (type == MsgType::kEventBatch) {
          group_stats[g].batched += work.response.batch_results.size();
        } else if (work.response.status != Status::kError) {
          ++group_stats[g].batched;
        }
      }
    }
    if (batching) {
      campaign->flush_batch();
      ++group_stats[g].flushes;
    }
  };
  // With one reactor the process-wide pool shards campaigns exactly as
  // the classic single-loop server did; with several reactors the
  // reactors themselves are the parallelism and each tick runs its
  // groups serially (shared-nothing, no pool contention).
  if (reactor_count() == 1 && order.size() > 1) {
    parallel_for(order.size(), run_group);
  } else {
    for (std::size_t g = 0; g < order.size(); ++g) {
      run_group(g);
    }
  }
  for (const GroupStats& stats : group_stats) {
    count(kEventsBatched, stats.batched);
    count(kBatchFlushes, stats.flushes);
  }

  if (server_.storage_ != nullptr) {
    // Group commit before any response leaves the process: everything
    // acknowledged this tick is already as durable as the fsync policy
    // promises. One write()/fsync covers the whole reactor tick.
    server_.storage_->commit();
  }

  for (ReactorWork& work : tick) {
    dispatch(work.origin, work.token, std::move(work.response));
  }
}

void Reactor::deliver(Session& session, std::uint64_t seq,
                      Response&& response) {
  if (seq != session.next_send) {
    session.held.emplace(seq, std::move(response));
    return;
  }
  release(session, response);
  ++session.next_send;
  auto it = session.held.begin();
  while (it != session.held.end() && it->first == session.next_send) {
    release(session, it->second);
    ++session.next_send;
    it = session.held.erase(it);
  }
}

void Reactor::release(Session& session, const Response& response) {
  append_response(session, response);
  count(kRequestsServed);
  if (!session.touched) {
    session.touched = true;
    touched_.push_back(session.fd);
  }
  if (session.reading &&
      session.pending_bytes() > server_.config_.max_write_buffer) {
    // Slow reader: stop accepting its requests until it drains.
    session.reading = false;
    count(kBackpressureStalls);
  }
}

void Reactor::append_response(Session& session, const Response& response) {
  if (session.outq.empty() ||
      session.outq.back().size() >= kOutChunkBytes) {
    session.outq.emplace_back();
  }
  std::string& tail = session.outq.back();
  const std::size_t before = tail.size();
  if (response.status == Status::kOk && response.seq == 0) {
    tail += ok_frame();  // pre-encoded ACK, the most common response
  } else {
    try {
      append_framed_response(tail, response);
    } catch (const ProtocolError&) {
      // Response larger than a frame allows (gigantic reward vector):
      // degrade to an in-protocol error instead of a broken stream.
      append_framed_response(
          tail, error_response(ErrorCode::kRejected,
                               "response exceeds frame size limit"));
    }
  }
  session.out_bytes += tail.size() - before;
}

void Reactor::flush(Session& session) {
  while (session.out_bytes > 0) {
    iovec iov[kMaxFlushIov];
    int iovcnt = 0;
    for (std::size_t c = 0;
         c < session.outq.size() && iovcnt < kMaxFlushIov; ++c) {
      const std::string& chunk = session.outq[c];
      const std::size_t skip = (c == 0) ? session.front_sent : 0;
      if (chunk.size() == skip) {
        continue;
      }
      iov[iovcnt].iov_base =
          const_cast<char*>(chunk.data() + skip);
      iov[iovcnt].iov_len = chunk.size() - skip;
      ++iovcnt;
    }
    if (iovcnt == 0) {
      break;
    }
    std::size_t sent = 0;
    const io::IoStatus status =
        io::sendv_some(session.fd, iov, iovcnt, &sent);
    if (status == io::IoStatus::kProgress) {
      session.last_activity = monotonic_seconds();
      session.out_bytes -= sent;
      while (sent > 0) {
        std::string& front = session.outq.front();
        const std::size_t avail = front.size() - session.front_sent;
        if (sent >= avail) {
          sent -= avail;
          session.outq.pop_front();
          session.front_sent = 0;
        } else {
          session.front_sent += sent;
          sent = 0;
        }
      }
      continue;
    }
    if (status == io::IoStatus::kWouldBlock) {
      break;
    }
    session.broken = true;
    return;
  }
}

void Reactor::flush_touched() {
  for (const int fd : touched_) {
    Session* session = (static_cast<std::size_t>(fd) < sessions_.size())
                           ? sessions_[fd].get()
                           : nullptr;
    if (session == nullptr) {
      continue;
    }
    session->touched = false;
    if (session->broken) {
      continue;
    }
    flush(*session);
    if (!session->broken) {
      maybe_resume_reading(*session);
      update_interest(*session);
    }
  }
  touched_.clear();
}

void Reactor::on_writable(int fd) {
  Session& session = *sessions_[fd];
  flush(session);
  if (session.broken) {
    return;
  }
  maybe_resume_reading(session);
  update_interest(session);
}

void Reactor::maybe_resume_reading(Session& session) {
  // Backpressure release: the peer caught up, resume reading. This must
  // run on EVERY flush path, not just EPOLLOUT — when a flush drains
  // the whole queue in one send, a paused session would otherwise end
  // up with neither EPOLLIN nor EPOLLOUT armed and sleep forever while
  // its remaining pipelined requests sit in the kernel receive buffer.
  if (!session.reading && !session.close_after_flush && !draining_ &&
      session.pending_bytes() < server_.config_.max_write_buffer / 2) {
    session.reading = true;
  }
}

void Reactor::update_interest(Session& session) {
  const bool want_write = session.pending_bytes() > 0;
  epoll_event event{};
  event.events = (session.reading && !draining_ ? EPOLLIN : 0u) |
                 (want_write ? EPOLLOUT : 0u);
  event.data.fd = session.fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, session.fd, &event);
  session.want_write = want_write;
}

Reactor::Session* Reactor::session_for(const CrossToken& token) {
  if (token.fd < 0 ||
      static_cast<std::size_t>(token.fd) >= sessions_.size()) {
    return nullptr;
  }
  Session* session = sessions_[token.fd].get();
  return (session != nullptr && session->serial == token.serial)
             ? session
             : nullptr;
}

void Reactor::close_session(int fd) {
  if (static_cast<std::size_t>(fd) >= sessions_.size() ||
      sessions_[fd] == nullptr) {
    return;
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  sessions_[fd].reset();
  count(kSessionsClosed);
}

void Reactor::harvest_idle(double now) {
  for (std::size_t fd = 0; fd < sessions_.size(); ++fd) {
    Session* session = sessions_[fd].get();
    if (session != nullptr && session->pending_bytes() == 0 &&
        session->fully_released() &&
        now - session->last_activity >
            server_.config_.idle_timeout_seconds) {
      count(kSessionsTimedOut);
      close_session(static_cast<int>(fd));
    }
  }
}

void Reactor::begin_drain() {
  draining_ = true;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
  // Stop reading everywhere; only flush from here on.
  for (auto& session : sessions_) {
    if (session) {
      update_interest(*session);
    }
  }
}

// --- Server -----------------------------------------------------------

Server::Server(const Mechanism& mechanism, ServerConfig config)
    : config_(std::move(config)), mechanism_(&mechanism) {
  if (config_.campaigns == 0) {
    throw std::invalid_argument("Server: need at least one campaign");
  }
  if (config_.reactors == 0) {
    config_.reactors = 1;
  }
  campaigns_.reserve(config_.campaigns);
  if (!config_.storage.data_dir.empty()) {
    // Durable deployment: recovery runs here, before any socket is
    // bound, so clients never observe a partially rebuilt service.
    storage_ = std::make_unique<storage::Storage>(
        mechanism, config_.campaigns, config_.storage);
    for (std::size_t i = 0; i < config_.campaigns; ++i) {
      campaigns_.push_back(&storage_->campaign(i));
    }
  } else {
    for (std::size_t i = 0; i < config_.campaigns; ++i) {
      owned_campaigns_.push_back(
          std::make_unique<RecordingService>(mechanism));
      campaigns_.push_back(owned_campaigns_.back().get());
    }
  }
  // After recovery: recovery itself only applies events, which strict
  // mode never rejects.
  for (RecordingService* campaign : campaigns_) {
    campaign->set_require_incremental(config_.require_incremental);
  }

  reactors_.reserve(config_.reactors);
  reactors_.push_back(std::make_unique<Reactor>(*this, 0, config_.port));
  port_ = reactors_[0]->bound_port();
  for (std::size_t i = 1; i < config_.reactors; ++i) {
    reactors_.push_back(std::make_unique<Reactor>(*this, i, port_));
  }
}

Server::~Server() = default;

void Server::attach_replica(ReplicaFeed* feed, double serve_stale_seconds) {
  replica_feed_ = feed;
  serve_stale_seconds_ = serve_stale_seconds;
  if (storage_ != nullptr) {
    // Reactors apply shipped records to the services without the
    // storage engine's state lock; a mid-run snapshot would observe a
    // torn world. The drain-time snapshot (after the reactors exited)
    // still runs.
    storage_->disable_periodic_snapshots();
  }
}

void Server::request_shutdown() {
  drain_requested_.store(true, std::memory_order_release);
  // Async-signal-safe: one eventfd write per reactor.
  for (const auto& reactor : reactors_) {
    reactor->wake();
  }
}

const RecordingService& Server::campaign(std::size_t index) const {
  return *campaigns_.at(index);
}

std::size_t Server::reactor_count() const { return reactors_.size(); }

ServerCounters Server::counters() const {
  ServerCounters total;
  for (const auto& reactor : reactors_) {
    total.sessions_accepted +=
        reactor->counter(Reactor::kSessionsAccepted);
    total.sessions_closed += reactor->counter(Reactor::kSessionsClosed);
    total.requests_served += reactor->counter(Reactor::kRequestsServed);
    total.protocol_errors += reactor->counter(Reactor::kProtocolErrors);
    total.sessions_timed_out +=
        reactor->counter(Reactor::kSessionsTimedOut);
    total.backpressure_stalls +=
        reactor->counter(Reactor::kBackpressureStalls);
    total.events_batched += reactor->counter(Reactor::kEventsBatched);
    total.batch_flushes += reactor->counter(Reactor::kBatchFlushes);
    total.requests_forwarded +=
        reactor->counter(Reactor::kRequestsForwarded);
    total.event_batches += reactor->counter(Reactor::kEventBatches);
    total.token_waits += reactor->counter(Reactor::kTokenWaits);
    total.token_bounces += reactor->counter(Reactor::kTokenBounces);
    total.writes_redirected +=
        reactor->counter(Reactor::kWritesRedirected);
  }
  return total;
}

ServerStatsBody Server::live_server_stats() const {
  const ServerCounters c = counters();
  ServerStatsBody stats;
  stats.reactors = reactors_.size();
  stats.sessions_accepted = c.sessions_accepted;
  stats.sessions_closed = c.sessions_closed;
  stats.requests_served = c.requests_served;
  stats.protocol_errors = c.protocol_errors;
  stats.sessions_timed_out = c.sessions_timed_out;
  stats.backpressure_stalls = c.backpressure_stalls;
  stats.events_batched = c.events_batched;
  stats.batch_flushes = c.batch_flushes;
  stats.requests_forwarded = c.requests_forwarded;
  stats.event_batches = c.event_batches;
  stats.token_waits = c.token_waits;
  stats.token_bounces = c.token_bounces;
  stats.writes_redirected = c.writes_redirected;
  if (storage_ != nullptr) {
    stats.committed_seq = storage_->committed_seq();
  }
  if (replica_feed_ != nullptr) {
    stats.role = 1;
    stats.applied_seq = replica_feed_->applied_floor();
    stats.primary_seq = replica_feed_->primary_seq();
    stats.repl_records_shipped = replica_feed_->records_shipped();
  }
  // Strictly increasing per served body within one process: a poller
  // whose next observation is <= its previous one knows the process
  // restarted and the cumulative counters reset.
  stats.stats_seq =
      stats_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  return stats;
}

void Server::run() {
  if (replica_feed_ != nullptr) {
    std::vector<std::function<void()>> wakers;
    wakers.reserve(reactors_.size());
    for (const auto& reactor : reactors_) {
      wakers.push_back([raw = reactor.get()] { raw->wake(); });
    }
    replica_feed_->start(std::move(wakers));
  }
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(reactors_.size());
  threads.reserve(reactors_.size() - 1);
  for (std::size_t i = 1; i < reactors_.size(); ++i) {
    threads.emplace_back([this, i, &errors] {
      try {
        reactors_[i]->run();
      } catch (...) {
        errors[i] = std::current_exception();
        request_shutdown();
      }
    });
  }
  try {
    reactors_[0]->run();
  } catch (...) {
    errors[0] = std::current_exception();
    request_shutdown();
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  if (replica_feed_ != nullptr) {
    // Join the puller before touching its queues, then apply whatever
    // it shipped but no reactor drained — single-threaded now — so the
    // final snapshot lands on a clean record boundary.
    replica_feed_->stop();
    for (const auto& reactor : reactors_) {
      reactor->apply_feed();
    }
  }
  for (const std::exception_ptr& error : errors) {
    if (error) {
      std::rethrow_exception(error);
    }
  }
  if (storage_ != nullptr) {
    // Graceful drain: checkpoint so the next start is O(snapshot) with
    // no WAL tail to replay.
    storage_->snapshot_now();
  }
}

std::optional<NodeId> Server::apply_event(std::uint32_t campaign_index,
                                          const Event& event,
                                          std::uint64_t* out_seq) {
  if (storage_ != nullptr) {
    // apply + WAL append; out_seq receives the assigned sequence.
    return storage_->apply(campaign_index, event, out_seq);
  }
  return campaigns_[campaign_index]->apply(event);
}

Response Server::apply_request(const Request& request) {
  if (request.campaign >= campaigns_.size()) {
    return error_response(ErrorCode::kUnknownCampaign,
                          "unknown campaign " +
                              std::to_string(request.campaign));
  }
  RecordingService& campaign = *campaigns_[request.campaign];
  Response response;
  try {
    if (request.node > std::numeric_limits<NodeId>::max()) {
      throw std::invalid_argument("node id out of range");
    }
    const NodeId node = static_cast<NodeId>(request.node);
    switch (request.type) {
      case MsgType::kJoin:
        response.status = Status::kOkId;
        response.id = *apply_event(request.campaign,
                                   JoinEvent{node, request.amount},
                                   &response.seq);
        break;
      case MsgType::kContribute:
        apply_event(request.campaign,
                    ContributeEvent{node, request.amount},
                    &response.seq);
        response.status = Status::kOk;
        break;
      case MsgType::kEventBatch: {
        // Events apply in frame order; on the first rejection the
        // remainder of the frame is skipped and the response reports
        // the applied prefix plus the cause (docs/protocol.md).
        response.status = Status::kOkBatch;
        response.batch_count =
            static_cast<std::uint32_t>(request.batch.size());
        response.batch_results.reserve(request.batch.size());
        for (const BatchEvent& event : request.batch) {
          try {
            if (event.node > std::numeric_limits<NodeId>::max()) {
              throw std::invalid_argument("node id out of range");
            }
            const NodeId batch_node = static_cast<NodeId>(event.node);
            if (event.kind == BatchEvent::kJoin) {
              response.batch_results.push_back(*apply_event(
                  request.campaign, JoinEvent{batch_node, event.amount},
                  &response.seq));
            } else {
              apply_event(request.campaign,
                          ContributeEvent{batch_node, event.amount},
                          &response.seq);
              response.batch_results.push_back(0);
            }
          } catch (const std::invalid_argument& error) {
            response.error = ErrorCode::kRejected;
            response.message = error.what();
            break;
          }
        }
        break;
      }
      case MsgType::kReward:
        response.status = Status::kOkValue;
        response.value = campaign.service().reward(node);
        break;
      case MsgType::kRewardAt:
        // On the primary (and on a replica once the parking gate let it
        // through) the token is satisfied by construction: serve it as
        // a plain reward query.
        response.status = Status::kOkValue;
        response.value = campaign.service().reward(node);
        break;
      case MsgType::kRewardsBatch:
        response.status = Status::kOkVector;
        response.rewards = campaign.service().rewards();
        break;
      case MsgType::kAudit:
        response.status = Status::kOkValue;
        response.value = campaign.service().audit();
        break;
      case MsgType::kStats:
        response.status = Status::kOkStats;
        response.stats.events = campaign.service().events_applied();
        response.stats.participants =
            campaign.service().tree().participant_count();
        response.stats.total_reward = campaign.service().total_reward();
        response.stats.incremental = campaign.service().incremental();
        break;
      case MsgType::kShutdown:
      case MsgType::kServerStats:
      case MsgType::kShardMap:
      case MsgType::kReplHello:
      case MsgType::kReplSnapshot:
      case MsgType::kReplSegment:
      case MsgType::kReplHeartbeat:
        // Handled at decode; never reaches a campaign worker.
        return error_response(ErrorCode::kBadRequest,
                              "unexpected control frame");
    }
  } catch (const std::invalid_argument& error) {
    return error_response(ErrorCode::kRejected, error.what());
  }
  return response;
}

Response Server::handle_replication(const Request& request) {
  if (replica_feed_ != nullptr) {
    return error_response(ErrorCode::kRejected,
                          "this server is a replica; the replication "
                          "stream is served by the primary at " +
                              replica_feed_->primary_endpoint());
  }
  if (storage_ == nullptr) {
    return error_response(ErrorCode::kRejected,
                          "replication requires a durable primary "
                          "(start it with --data-dir)");
  }
  Response response;
  switch (request.type) {
    case MsgType::kReplHello: {
      const std::uint64_t committed = storage_->committed_seq();
      if (request.seq > committed) {
        return error_response(
            ErrorCode::kRejected,
            "replica claims applied seq " + std::to_string(request.seq) +
                " beyond the primary's committed " +
                std::to_string(committed) + "; histories diverged");
      }
      response.status = Status::kOkReplHello;
      response.seq = committed;
      response.repl.version = kReplProtocolVersion;
      response.repl.campaigns =
          static_cast<std::uint32_t>(campaigns_.size());
      response.repl.min_available_seq = storage_->min_available_seq();
      response.repl.mechanism = mechanism_->display_name();
      break;
    }
    case MsgType::kReplSnapshot: {
      std::string image = storage_->encode_state_snapshot();
      // The image must fit one frame (with the body's fixed fields);
      // deployments beyond ~16 MiB of state need file-level seeding.
      if (image.size() + 64 > kMaxFrameBytes) {
        return error_response(ErrorCode::kRejected,
                              "snapshot image exceeds the frame size "
                              "limit; seed the replica from a file copy");
      }
      response.status = Status::kOkReplSnapshot;
      response.seq = storage_->committed_seq();
      response.repl.min_available_seq = storage_->min_available_seq();
      response.repl.payload = std::move(image);
      break;
    }
    case MsgType::kReplSegment: {
      storage::ReplicationWindow window =
          storage_->read_replication_window(request.seq,
                                            request.max_records);
      if (window.count == 0 && request.seq < window.min_available_seq) {
        return error_response(
            ErrorCode::kSeqCompacted,
            "records from seq " + std::to_string(request.seq) +
                " were compacted (oldest available " +
                std::to_string(window.min_available_seq) +
                "); re-bootstrap from a snapshot");
      }
      response.status = Status::kOkReplSegment;
      response.seq = window.committed_seq;
      response.repl.min_available_seq = window.min_available_seq;
      response.repl.payload = std::move(window.records);
      break;
    }
    case MsgType::kReplHeartbeat:
      response.status = Status::kOkReplHeartbeat;
      response.seq = storage_->committed_seq();
      break;
    default:
      return error_response(ErrorCode::kBadRequest,
                            "not a replication frame");
  }
  return response;
}

}  // namespace itree::net
