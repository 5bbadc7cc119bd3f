#include "net/server.h"

#include <limits>
#include <stdexcept>

#include "net/event_loop.h"
#include "util/bench_json.h"  // monotonic_seconds
#include "util/le_codec.h"

namespace itree::net {

/// One decoded campaign request, applied in this reactor's next tick.
struct ReactorWork {
  ResponseSlot token;
  Request request;
  Response response;
};

// --- Reactor ----------------------------------------------------------

/// One reactor thread of the daemon: an EventLoop (net/event_loop.h)
/// carries the sessions; the reactor applies their campaign requests
/// once per tick, in arrival order, and group-commits storage.
class Reactor final : public LoopHandler {
 public:
  /// Per-reactor counter slots; Server::counters() sums them (and the
  /// loop's transport counters) across reactors.
  enum Counter : std::size_t {
    kEventsBatched,
    kBatchFlushes,
    kEventBatches,
    kTokenWaits,
    kTokenBounces,
    kWritesRedirected,
    kCounterCount,
  };

  Reactor(Server& server, std::uint16_t port);

  EventLoop& loop() { return loop_; }
  const EventLoop& loop() const { return loop_; }

  std::uint64_t counter(Counter c) const {
    return counters_[c].load(std::memory_order_relaxed);
  }

  // LoopHandler
  void on_frame(Session& session, std::uint64_t seq,
                std::string_view payload) override;
  void on_tick() override;
  int timeout_ms() const override;

 private:
  void count(Counter c, std::uint64_t n = 1) {
    counters_[c].fetch_add(n, std::memory_order_relaxed);
  }

  void service_parked();
  void deliver(const ResponseSlot& token, Response&& response);
  void route(Session& session, std::uint64_t seq, Request&& request);
  void process_tick();

  Server& server_;
  EventLoop loop_;

  /// This tick's campaign work, in arrival order; kept across ticks so
  /// that a steady tick allocates nothing.
  std::vector<ReactorWork> inbox_;
  /// Replica mode: REWARD_AT queries whose token is beyond the applied
  /// floor, waiting (until `deadline`) for the puller to catch up.
  struct ParkedQuery {
    ResponseSlot token;
    Request request;
    double deadline = 0.0;
  };
  std::vector<ParkedQuery> parked_;
  std::atomic<std::uint64_t> counters_[kCounterCount] = {};
};

Reactor::Reactor(Server& server, std::uint16_t port)
    : server_(server),
      loop_(*this, EventLoop::Options{
                       .host = server.config_.host,
                       .port = port,
                       .idle_timeout_seconds =
                           server.config_.idle_timeout_seconds,
                       .max_write_buffer = server.config_.max_write_buffer,
                       .owner = "Server"}) {}

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
  process_tick();
  service_parked();
}

int Reactor::timeout_ms() const {
  // Parked token queries need their deadlines checked even when the
  // puller is silent, so a replica with parked work ticks briskly.
  return parked_.empty() ? -1 : 5;
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
      deliver(parked.token, server_.apply_request(parked.request));
    } else if (loop_.draining() || now > parked.deadline) {
      count(kTokenBounces);
      deliver(parked.token,
              error_response(ErrorCode::kReplicaLagging,
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

void Reactor::deliver(const ResponseSlot& token, Response&& response) {
  if (Session* session = loop_.session_for(token)) {
    loop_.deliver(*session, token.seq, std::move(response));
  }
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
  if (server_.replica_feed_ != nullptr &&
      request.type == MsgType::kRewardAt &&
      request.seq > server_.replica_feed_->applied_floor()) {
    // Read-your-writes: a REWARD_AT whose token is past the applied
    // floor parks until the puller catches up (or the staleness
    // deadline bounces it). Queries are order-free against each other,
    // so parking one does not reorder its session's responses — the
    // per-session sequencer still releases answers in request order.
    count(kTokenWaits);
    parked_.push_back(
        ParkedQuery{session.slot(seq), std::move(request),
                    monotonic_seconds() + server_.serve_stale_seconds_});
    return;
  }
  ReactorWork& work = inbox_.emplace_back();
  work.token = session.slot(seq);
  work.request = std::move(request);
}

void Reactor::process_tick() {
  if (inbox_.empty()) {
    return;
  }
  // Every request applies in full, under its campaign's lock, before
  // the next one runs, so a query always reads current state and each
  // campaign sees its sessions' requests in order. events_batched /
  // batch_flushes count the events in runs of consecutive write frames
  // for one campaign, and the number of such runs.
  std::uint64_t batched = 0;
  std::uint64_t runs = 0;
  std::optional<std::uint32_t> run_campaign;
  for (ReactorWork& work : inbox_) {
    const MsgType type = work.request.type;
    const bool is_event = is_write(type);
    if (!is_event) {
      run_campaign.reset();
    } else if (run_campaign != work.request.campaign) {
      run_campaign = work.request.campaign;
      ++runs;
    }
    work.response = server_.apply_request(work.request);
    if (type == MsgType::kEventBatch) {
      batched += work.response.batch_results.size();
    } else if (is_event && work.response.status != Status::kError) {
      ++batched;
    }
  }
  count(kEventsBatched, batched);
  count(kBatchFlushes, runs);

  if (server_.storage_ != nullptr) {
    // Group commit before any response leaves the process: everything
    // acknowledged this tick is already as durable as the fsync policy
    // promises. One write()/fsync covers the whole reactor tick.
    server_.storage_->commit();
  }

  for (ReactorWork& work : inbox_) {
    deliver(work.token, std::move(work.response));
  }
  inbox_.clear();
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
  campaign_locks_ = std::vector<CampaignLock>(config_.campaigns);
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
  reactors_.push_back(std::make_unique<Reactor>(*this, config_.port));
  port_ = reactors_[0]->loop().port();
  for (std::size_t i = 1; i < config_.reactors; ++i) {
    reactors_.push_back(std::make_unique<Reactor>(*this, port_));
  }
}

Server::~Server() = default;

void Server::attach_replica(ReplicaFeed* feed, double serve_stale_seconds) {
  replica_feed_ = feed;
  serve_stale_seconds_ = serve_stale_seconds;
  if (storage_ != nullptr) {
    // The puller applies shipped records to the services without the
    // storage engine's state lock; a mid-run snapshot would observe a
    // torn world. The drain-time snapshot (after the puller stopped)
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
    replica_feed_->start([this] {
      for (const auto& reactor : reactors_) {
        reactor->loop().wake();
      }
    });
  }
  const std::exception_ptr error = run_on_threads(
      reactors_.size(), [this](std::size_t i) { reactors_[i]->loop().run(); },
      [this] { request_shutdown(); });
  if (replica_feed_ != nullptr) {
    // The puller applies whole batches, so once it is joined the final
    // snapshot lands on a clean record boundary.
    replica_feed_->stop();
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
  const std::lock_guard<std::mutex> lock(
      campaign_locks_[request.campaign].mutex);
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

void Server::apply_shipped(std::uint32_t campaign_index,
                           const Event& event) {
  const std::lock_guard<std::mutex> lock(
      campaign_locks_.at(campaign_index).mutex);
  campaigns_[campaign_index]->apply(event);
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
