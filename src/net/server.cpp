#include "net/server.h"

#include <limits>
#include <stdexcept>
#include <thread>

#include "net/event_loop.h"
#include "net/spsc_ring.h"
#include "util/bench_json.h"  // monotonic_seconds
#include "util/le_codec.h"
#include "util/parallel.h"

namespace itree::net {

namespace {

/// Cross-reactor ring capacity (entries per ordered reactor pair). A
/// full ring never deadlocks: the stalled producer keeps draining its
/// own inbound rings while it retries (see Reactor::push).
constexpr std::size_t kRingCapacity = 1024;

}  // namespace

// --- Cross-reactor messages -------------------------------------------

struct CrossRequest {
  std::uint32_t origin = 0;  ///< reactor index that owns the session
  ResponseSlot token;
  Request request;
};

struct CrossResponse {
  ResponseSlot token;
  Response response;
};

/// One unit of campaign work: a request owned by this reactor, either
/// decoded locally (origin == self) or forwarded from a peer.
struct ReactorWork {
  std::uint32_t origin = 0;
  ResponseSlot token;
  Request request;
  Response response;
};

// --- Reactor ----------------------------------------------------------

/// One reactor thread of the daemon: an EventLoop (net/event_loop.h)
/// carries the sessions; the reactor routes their requests to campaign
/// owners, applies its own campaigns' work once per tick, group-commits
/// storage and applies the replica feed.
class Reactor final : public LoopHandler {
 public:
  /// Per-reactor counter slots; Server::counters() sums them (and the
  /// loop's transport counters) across reactors.
  enum Counter : std::size_t {
    kEventsBatched,
    kBatchFlushes,
    kRequestsForwarded,
    kEventBatches,
    kTokenWaits,
    kTokenBounces,
    kWritesRedirected,
    kCounterCount,
  };

  Reactor(Server& server, std::size_t index, std::uint16_t port);

  EventLoop& loop() { return loop_; }
  const EventLoop& loop() const { return loop_; }

  std::uint64_t counter(Counter c) const {
    return counters_[c].load(std::memory_order_relaxed);
  }

  void apply_feed();

  // LoopHandler
  void on_frame(Session& session, std::uint64_t seq,
                std::string_view payload) override;
  void on_tick() override;
  int timeout_ms() const override;
  bool drain_settled() override;

 private:
  void count(Counter c, std::uint64_t n = 1) {
    counters_[c].fetch_add(n, std::memory_order_relaxed);
  }

  std::size_t reactor_count() const;
  std::uint32_t owner_of(std::uint32_t campaign) const;

  void service_parked();
  void dispatch(std::uint32_t origin, const ResponseSlot& token,
                Response&& response);
  void route(Session& session, std::uint64_t seq, Request&& request);
  /// Pushes onto `ring`, reactor `target`'s inbound ring from this one.
  template <typename Message>
  void push(std::uint32_t target, SpscRing<Message>& ring,
            Message&& message);
  void drain_request_rings();
  void drain_response_rings();
  void flush_wakes();
  void process_tick();

  Server& server_;
  const std::size_t index_;
  EventLoop loop_;

  /// This tick's campaign work, in arrival order (local + forwarded).
  std::vector<ReactorWork> inbox_;
  /// One campaign's share of a tick: its requests are
  /// grouped_[first, last), in arrival order, plus its counters.
  struct TickGroup {
    std::uint32_t first = 0;
    std::uint32_t last = 0;
    std::uint64_t batched = 0;
    std::uint64_t runs = 0;
  };
  /// process_tick() scratch, kept across ticks so that a steady tick
  /// allocates nothing: the work being applied (swapped with inbox_, so
  /// both keep their capacity), the campaigns it touches in
  /// first-arrival order, per campaign a request count and then a next
  /// free slot (all zero between ticks), the tick's indices grouped by
  /// campaign, and one TickGroup per touched campaign.
  std::vector<ReactorWork> tick_;
  std::vector<std::uint32_t> touched_;
  std::vector<std::uint32_t> group_next_;
  std::vector<std::uint32_t> grouped_;
  std::vector<TickGroup> groups_;
  /// Replica mode: REWARD_AT queries whose token is beyond the applied
  /// floor, waiting (until `deadline`) for the feed to catch up.
  struct ParkedQuery {
    std::uint32_t origin = 0;
    ResponseSlot token;
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
  /// Set (permanently) once this reactor can no longer originate
  /// forwards: draining and past its final decode pass. Peers drain
  /// their inbound rings until every reactor has set this.
  std::atomic<bool> forwards_done_{false};
  std::atomic<std::uint64_t> counters_[kCounterCount] = {};
};

Reactor::Reactor(Server& server, std::size_t index, std::uint16_t port)
    : server_(server),
      index_(index),
      loop_(*this, EventLoop::Options{
                       .host = server.config_.host,
                       .port = port,
                       .idle_timeout_seconds =
                           server.config_.idle_timeout_seconds,
                       .max_write_buffer = server.config_.max_write_buffer,
                       .owner = "Server"}) {
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
  group_next_.assign(server_.campaigns_.size(), 0);
}

std::size_t Reactor::reactor_count() const {
  return server_.reactors_.size();
}

std::uint32_t Reactor::owner_of(std::uint32_t campaign) const {
  return campaign % static_cast<std::uint32_t>(reactor_count());
}

void Reactor::on_frame(Session& session, std::uint64_t seq,
                       std::string_view payload) {
  try {
    route(session, seq, decode_request(payload));
  } catch (const ProtocolError& error) {
    loop_.count_protocol_error();
    loop_.deliver(session, seq,
                  error_response(ErrorCode::kBadRequest, error.what()));
  }
}

void Reactor::on_tick() {
  drain_request_rings();
  apply_feed();
  process_tick();
  service_parked();
  drain_response_rings();
  flush_wakes();
}

int Reactor::timeout_ms() const {
  // Parked token queries need their deadlines checked even when the
  // feed is silent, so a replica with parked work ticks briskly.
  return parked_.empty() ? -1 : 5;
}

bool Reactor::drain_settled() {
  // Reads are off and this pass routed every decoded request, so no
  // further forwards can originate here.
  forwards_done_.store(true, std::memory_order_release);
  bool rings_quiet = outstanding_ == 0 && inbox_.empty();
  for (const auto& reactor : server_.reactors_) {
    rings_quiet = rings_quiet &&
                  reactor->forwards_done_.load(std::memory_order_acquire);
  }
  for (const auto& ring : request_in_) {
    rings_quiet = rings_quiet && ring->empty();
  }
  return rings_quiet;
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
  // events_batched / batch_flushes count the events and the runs of
  // consecutive events for one campaign.
  std::uint64_t through = 0;
  std::optional<std::uint32_t> run_campaign;
  std::uint64_t batched = 0;
  std::uint64_t runs = 0;
  for (const ReplicaFeed::Item& item : feed_items_) {
    if (item.is_event) {
      if (run_campaign != item.campaign) {
        run_campaign = item.campaign;
        ++runs;
      }
      // A shipped record was validated by the primary; a rejection here
      // means the histories diverged, and the throw fail-stops the
      // replica rather than serving silently wrong rewards.
      server_.campaigns_[item.campaign]->apply(item.event);
      ++batched;
    }
    if (item.through > through) {
      through = item.through;
    }
  }
  count(kBatchFlushes, runs);
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
    } else if (loop_.draining() || now > parked.deadline) {
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

void Reactor::dispatch(std::uint32_t origin, const ResponseSlot& token,
                       Response&& response) {
  if (origin == index_) {
    if (Session* session = loop_.session_for(token)) {
      loop_.deliver(*session, token.seq, std::move(response));
    }
    return;
  }
  CrossResponse message;
  message.token = token;
  message.response = std::move(response);
  push(origin, *server_.reactors_[origin]->response_in_[index_],
       std::move(message));
}

void Reactor::route(Session& session, std::uint64_t seq,
                    Request&& request) {
  if (request.type == MsgType::kShutdown) {
    if (server_.config_.allow_remote_shutdown) {
      server_.request_shutdown();
      loop_.deliver(session, seq, Response{});  // kOk
    } else {
      loop_.deliver(session, seq,
                    error_response(ErrorCode::kRejected,
                                   "remote shutdown is disabled"));
    }
    return;
  }
  if (request.type == MsgType::kServerStats) {
    Response response;
    response.status = Status::kOkServerStats;
    response.server_stats = server_.counters();
    loop_.deliver(session, seq, response);
    return;
  }
  if (request.type == MsgType::kShardMap) {
    // Shard maps are a router concept; a worker answering one would
    // invent a topology it does not have.
    loop_.deliver(session, seq,
                  error_response(ErrorCode::kBadRequest,
                                 "SHARD_MAP: this endpoint is not a router"));
    return;
  }
  if (is_replication(request.type)) {
    // Served inline on whichever reactor accepted the replica's
    // connection; the storage engine's own locking makes this safe.
    loop_.deliver(session, seq, server_.handle_replication(request));
    return;
  }
  if (server_.replica_feed_ != nullptr && is_write(request.type)) {
    count(kWritesRedirected);
    loop_.deliver(session, seq,
                  error_response(ErrorCode::kNotPrimary,
                                 server_.replica_feed_->primary_endpoint()));
    return;
  }
  if (request.campaign >= server_.campaigns_.size()) {
    loop_.deliver(session, seq,
                  error_response(ErrorCode::kUnknownCampaign,
                                 "unknown campaign " +
                                     std::to_string(request.campaign)));
    return;
  }
  if (request.type == MsgType::kEventBatch) {
    count(kEventBatches);
  }
  const std::uint32_t owner = owner_of(request.campaign);
  const ResponseSlot token = session.slot(seq);
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
  ++outstanding_;
  count(kRequestsForwarded);
  push(owner, *server_.reactors_[owner]->request_in_[index_],
       std::move(message));
}

template <typename Message>
void Reactor::push(std::uint32_t target, SpscRing<Message>& ring,
                   Message&& message) {
  while (!ring.push(std::move(message))) {
    // The target's inbound ring is full. Keep the system live while
    // retrying: consume our own inbound traffic (responses free peers
    // stalled on our rings; requests merely append to inbox_) and make
    // sure the target is awake to drain.
    pushed_since_wake_[target] = 1;
    flush_wakes();
    drain_response_rings();
    drain_request_rings();
    std::this_thread::yield();
  }
  pushed_since_wake_[target] = 1;
}

void Reactor::drain_request_rings() {
  CrossRequest message;
  for (auto& ring : request_in_) {
    while (ring->pop(&message)) {
      ReactorWork work;
      work.origin = message.origin;
      work.token = message.token;
      work.request = std::move(message.request);
      inbox_.push_back(std::move(work));
    }
  }
}

void Reactor::drain_response_rings() {
  CrossResponse message;
  for (auto& ring : response_in_) {
    while (ring->pop(&message)) {
      --outstanding_;
      if (Session* session = loop_.session_for(message.token)) {
        loop_.deliver(*session, message.token.seq,
                      std::move(message.response));
      }
    }
  }
}

void Reactor::flush_wakes() {
  for (std::size_t t = 0; t < pushed_since_wake_.size(); ++t) {
    if (pushed_since_wake_[t]) {
      pushed_since_wake_[t] = 0;
      server_.reactors_[t]->loop().wake();
    }
  }
}

void Reactor::process_tick() {
  if (inbox_.empty()) {
    return;
  }
  tick_.swap(inbox_);
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
    for (ReactorWork& work : tick_) {
      if (work.request.type == MsgType::kRewardAt &&
          work.request.seq > floor) {
        count(kTokenWaits);
        parked_.push_back(ParkedQuery{work.origin, work.token,
                                      std::move(work.request), deadline});
      } else {
        tick_[kept++] = std::move(work);
      }
    }
    tick_.resize(kept);
    if (tick_.empty()) {
      return;
    }
  }
  // Group work by campaign with a counting pass; each group keeps
  // arrival order, so a campaign's event sequence is independent of
  // reactor placement and thread count.
  touched_.clear();
  for (const ReactorWork& work : tick_) {
    if (group_next_[work.request.campaign]++ == 0) {
      touched_.push_back(work.request.campaign);
    }
  }
  groups_.resize(touched_.size());
  std::uint32_t at = 0;
  for (std::size_t g = 0; g < touched_.size(); ++g) {
    std::uint32_t& next = group_next_[touched_[g]];
    groups_[g] = TickGroup{at, at + next};
    at += next;
    next = groups_[g].first;
  }
  grouped_.resize(tick_.size());
  for (std::size_t i = 0; i < tick_.size(); ++i) {
    grouped_[group_next_[tick_[i].request.campaign]++] =
        static_cast<std::uint32_t>(i);
  }
  for (const std::uint32_t campaign : touched_) {
    group_next_[campaign] = 0;
  }
  // Every request applies in full before the next one runs, so a query
  // always reads current state. events_batched / batch_flushes count
  // the events in each campaign's runs of consecutive write frames and
  // the number of such runs. Each group counts into its own TickGroup,
  // summed afterwards: groups may run on pool threads and must not race
  // on the counters.
  const auto run_group = [&](std::size_t g) {
    TickGroup& group = groups_[g];
    bool in_run = false;
    for (std::uint32_t k = group.first; k < group.last; ++k) {
      ReactorWork& work = tick_[grouped_[k]];
      const MsgType type = work.request.type;
      const bool is_event = is_write(type);
      if (is_event && !in_run) {
        ++group.runs;
      }
      in_run = is_event;
      work.response = server_.apply_request(work.request);
      if (type == MsgType::kEventBatch) {
        group.batched += work.response.batch_results.size();
      } else if (is_event && work.response.status != Status::kError) {
        ++group.batched;
      }
    }
  };
  // With one reactor the process-wide pool shards campaigns exactly as
  // the classic single-loop server did; with several reactors the
  // reactors themselves are the parallelism and each tick runs its
  // groups serially (shared-nothing, no pool contention).
  if (reactor_count() == 1 && groups_.size() > 1) {
    parallel_for(groups_.size(), run_group);
  } else {
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      run_group(g);
    }
  }
  for (const TickGroup& group : groups_) {
    count(kEventsBatched, group.batched);
    count(kBatchFlushes, group.runs);
  }

  if (server_.storage_ != nullptr) {
    // Group commit before any response leaves the process: everything
    // acknowledged this tick is already as durable as the fsync policy
    // promises. One write()/fsync covers the whole reactor tick.
    server_.storage_->commit();
  }

  for (ReactorWork& work : tick_) {
    dispatch(work.origin, work.token, std::move(work.response));
  }
  tick_.clear();
}

namespace {

/// The REWARDS answer, framed once: the OK_VECTOR header, then every
/// served reward written block by block from the campaign's aggregate
/// columns into the frame the response carries — no served vector is
/// built or cached. Too many participants for one frame get the same
/// kRejected error an oversized encoded response gets.
Response frame_rewards(const RewardService& service) {
  Response response;
  try {
    append_vector_frame_header(response.framed, service.tree().node_count());
  } catch (const ProtocolError&) {
    return error_response(ErrorCode::kRejected,
                          "response exceeds frame size limit");
  }
  service.visit_rewards([&response](NodeId, std::span<const double> block) {
    le::put_array(response.framed, block);
  });
  response.status = Status::kOkVector;
  return response;
}

}  // namespace

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
  reactors_.reserve(config_.reactors);
  reactors_.push_back(std::make_unique<Reactor>(*this, 0, config_.port));
  port_ = reactors_[0]->loop().port();
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
  // Async-signal-safe: one eventfd write per reactor.
  for (const auto& reactor : reactors_) {
    reactor->loop().request_drain();
  }
}

const RecordingService& Server::campaign(std::size_t index) const {
  return *campaigns_.at(index);
}

std::size_t Server::reactor_count() const { return reactors_.size(); }

ServerStatsBody Server::counters() const {
  ServerStatsBody stats;
  stats.reactors = reactors_.size();
  for (const auto& reactor : reactors_) {
    const EventLoop& loop = reactor->loop();
    stats.sessions_accepted += loop.counter(EventLoop::kSessionsAccepted);
    stats.sessions_closed += loop.counter(EventLoop::kSessionsClosed);
    stats.requests_served += loop.counter(EventLoop::kResponsesReleased);
    stats.protocol_errors += loop.counter(EventLoop::kProtocolErrors);
    stats.sessions_timed_out += loop.counter(EventLoop::kSessionsTimedOut);
    stats.backpressure_stalls +=
        loop.counter(EventLoop::kBackpressureStalls);
    stats.events_batched += reactor->counter(Reactor::kEventsBatched);
    stats.batch_flushes += reactor->counter(Reactor::kBatchFlushes);
    stats.requests_forwarded +=
        reactor->counter(Reactor::kRequestsForwarded);
    stats.event_batches += reactor->counter(Reactor::kEventBatches);
    stats.token_waits += reactor->counter(Reactor::kTokenWaits);
    stats.token_bounces += reactor->counter(Reactor::kTokenBounces);
    stats.writes_redirected +=
        reactor->counter(Reactor::kWritesRedirected);
  }
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
      wakers.push_back([raw = reactor.get()] { raw->loop().wake(); });
    }
    replica_feed_->start(std::move(wakers));
  }
  const std::exception_ptr error = run_on_threads(
      reactors_.size(), [this](std::size_t i) { reactors_[i]->loop().run(); },
      [this] { request_shutdown(); });
  if (replica_feed_ != nullptr) {
    // Join the puller before touching its queues, then apply whatever
    // it shipped but no reactor drained — single-threaded now — so the
    // final snapshot lands on a clean record boundary.
    replica_feed_->stop();
    for (const auto& reactor : reactors_) {
      reactor->apply_feed();
    }
  }
  if (error) {
    std::rethrow_exception(error);
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
      case MsgType::kRewardAt:
        // On the primary (and on a replica once the parking gate let it
        // through) a REWARD_AT token is satisfied by construction: serve
        // it as a plain reward query.
        response.status = Status::kOkValue;
        response.value = campaign.service().reward(node);
        break;
      case MsgType::kRewardsBatch:
        return frame_rewards(campaign.service());
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
        // Every served mechanism is incremental; the wire field stays.
        response.stats.incremental = true;
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
