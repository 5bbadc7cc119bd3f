#include "net/load_driver.h"

#include <chrono>
#include <deque>
#include <thread>
#include <utility>

#include "net/client.h"
#include "util/bench_json.h"

namespace itree::net {

Decision RequestMix::next(Rng& rng, std::uint64_t i,
                          const std::vector<NodeId>& mine) const {
  Decision decision;
  if (mine.empty() || rng.bernoulli(join_share_)) {
    decision.is_event = true;
    decision.event.kind = BatchEvent::kJoin;
    decision.event.node = (mine.empty() || rng.bernoulli(0.15))
                              ? kRoot
                              : mine[rng.index(mine.size())];
    decision.event.amount = rng.uniform(0.0, 3.0);
  } else if (!queries_ || rng.bernoulli(0.5)) {
    decision.is_event = true;
    decision.event.kind = BatchEvent::kContribute;
    decision.event.node = mine[rng.index(mine.size())];
    decision.event.amount = rng.uniform(0.0, 2.0);
  } else if (i % 64 == 63) {
    decision.query.type = MsgType::kRewardsBatch;
  } else if (!stats_ || rng.bernoulli(0.8)) {
    decision.query.type = MsgType::kReward;
    decision.query.node = mine[rng.index(mine.size())];
  } else {
    decision.query.type = MsgType::kStats;
  }
  return decision;
}

namespace {

/// Classic style: one frame per decision, strict request/response.
void drive_classic(const LoadDriver& driver, std::uint32_t campaign,
                   Rng rng, LoadReport* report) {
  Client client = Client::connect_with_retry(driver.host, driver.port);
  // Read split: queries go to the replicas, events stay on `client`,
  // so the event stream and the final digests are untouched.
  std::vector<Client> readers;
  readers.reserve(driver.replicas.size());
  for (const auto& [replica_host, replica_port] : driver.replicas) {
    readers.push_back(
        Client::connect_with_retry(replica_host, replica_port));
  }
  std::vector<NodeId> mine;  // participants this connection created
  report->latencies_seconds.reserve(driver.requests);
  for (std::uint64_t i = 0; i < driver.requests; ++i) {
    const Decision decision = driver.mix.next(rng, i, mine);
    Request request = decision.query;
    request.campaign = campaign;
    Client* target = &client;
    if (decision.is_event) {
      request.type = decision.event.kind == BatchEvent::kJoin
                         ? MsgType::kJoin
                         : MsgType::kContribute;
      request.node = decision.event.node;
      request.amount = decision.event.amount;
    } else if (!readers.empty()) {
      target = &readers[report->replica_reads % readers.size()];
      ++report->replica_reads;
      if (request.type == MsgType::kReward) {
        request.type = MsgType::kRewardAt;
        request.seq = client.last_write_seq();
      }
    }
    const double start = monotonic_seconds();
    Response response;
    try {
      response = target->call(request);
    } catch (const std::exception& error) {
      throw std::runtime_error(
          "request " + std::to_string(static_cast<int>(request.type)) +
          " (campaign " + std::to_string(request.campaign) + ", node " +
          std::to_string(request.node) + ", seq " +
          std::to_string(request.seq) + ", target " +
          (target == &client ? "primary" : "replica") +
          "): " + error.what());
    }
    report->latencies_seconds.push_back(monotonic_seconds() - start);
    ++report->frames;
    if (decision.is_event) {
      ++report->events;
      if (request.type == MsgType::kJoin) {
        mine.push_back(static_cast<NodeId>(response.id));
      }
    }
  }
}

/// One in-flight streamed frame awaiting its response.
struct InflightFrame {
  double reference_time = 0.0;  ///< send time, or scheduled arrival
  /// Predicted EVENT_BATCH results (id per join, 0 per contribution);
  /// empty for a query frame.
  std::vector<std::uint64_t> expected;
};

/// Streamed style: EVENT_BATCH coalescing with predicted join ids, a
/// pipeline window and optional open-loop pacing.
void drive_streamed(const LoadDriver& driver, std::uint32_t campaign,
                    Rng rng, LoadReport* report) {
  Client client = Client::connect_with_retry(driver.host, driver.port);
  // Seeding from live state lets streamed runs compose: a second pass
  // against the same daemon keeps predicting correctly.
  auto next_id =
      static_cast<NodeId>(client.stats(campaign).participants + 1);
  const double rate =
      driver.rate / static_cast<double>(driver.connections);
  std::vector<NodeId> mine;
  Request pending;  // EVENT_BATCH being filled
  pending.type = MsgType::kEventBatch;
  pending.campaign = campaign;
  InflightFrame pending_frame;
  std::deque<InflightFrame> inflight;
  report->latencies_seconds.reserve(driver.requests);

  const auto settle = [&](const Response& response) {
    const InflightFrame& frame = inflight.front();
    if (!response.ok()) {
      throw ServiceError(response.error, response.message);
    }
    if (!frame.expected.empty() &&
        (response.status != Status::kOkBatch ||
         response.batch_results != frame.expected)) {
      throw std::runtime_error(
          "EVENT_BATCH response does not match the predicted id "
          "sequence (is another writer sharing this campaign?)");
    }
    report->latencies_seconds.push_back(monotonic_seconds() -
                                        frame.reference_time);
    inflight.pop_front();
  };
  const auto settle_down_to = [&](std::size_t limit) {
    while (inflight.size() > limit) {
      settle(client.read_response());
    }
  };
  const auto send = [&](const Request& request, InflightFrame frame) {
    // Make room in the window first: the send can block on a full
    // socket, and responses must keep draining meanwhile.
    settle_down_to(driver.pipeline - 1);
    if (rate == 0.0) {
      frame.reference_time = monotonic_seconds();
    }
    client.send_request(request);
    ++report->frames;
    inflight.push_back(std::move(frame));
  };
  const auto flush_pending = [&] {
    if (pending.batch.empty()) {
      return;
    }
    report->events += pending.batch.size();
    send(pending, std::exchange(pending_frame, {}));
    pending.batch.clear();
  };

  const double start = monotonic_seconds();
  for (std::uint64_t i = 0; i < driver.requests; ++i) {
    double scheduled = 0.0;
    if (rate > 0.0) {
      // Decision i arrives on schedule however the server is doing;
      // settle what comes back while waiting for it.
      scheduled = start + static_cast<double>(i) / rate;
      while (!inflight.empty()) {
        const std::optional<Response> response =
            client.read_response_until(scheduled);
        if (!response) {
          break;
        }
        settle(*response);
      }
      const double now = monotonic_seconds();
      if (now < scheduled) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(scheduled - now));
      }
    }
    const Decision decision = driver.mix.next(rng, i, mine);
    if (decision.is_event) {
      if (pending.batch.empty()) {
        pending_frame.reference_time = scheduled;
      }
      if (decision.event.kind == BatchEvent::kJoin) {
        mine.push_back(next_id);
        pending_frame.expected.push_back(next_id++);
      } else {
        pending_frame.expected.push_back(0);
      }
      pending.batch.push_back(decision.event);
      if (pending.batch.size() >= driver.batch) {
        flush_pending();
      }
      continue;
    }
    flush_pending();
    Request query = decision.query;
    query.campaign = campaign;
    InflightFrame frame;
    frame.reference_time = scheduled;
    send(query, std::move(frame));
  }
  flush_pending();
  settle_down_to(0);
}

}  // namespace

LoadReport LoadDriver::run(const Rng& base) const {
  std::vector<LoadReport> reports(connections);
  std::vector<std::thread> threads;
  threads.reserve(connections);
  const double start = monotonic_seconds();
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([this, &base, &reports, c] {
      const auto campaign = static_cast<std::uint32_t>(c % campaigns);
      const Rng rng = base.fork(first_stream + c);
      try {
        if (streamed()) {
          drive_streamed(*this, campaign, rng, &reports[c]);
        } else {
          drive_classic(*this, campaign, rng, &reports[c]);
        }
      } catch (const std::exception& error) {
        reports[c].error = error.what();
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  LoadReport merged;
  merged.wall_seconds = monotonic_seconds() - start;
  for (const LoadReport& report : reports) {
    merged.latencies_seconds.insert(merged.latencies_seconds.end(),
                                    report.latencies_seconds.begin(),
                                    report.latencies_seconds.end());
    merged.frames += report.frames;
    merged.events += report.events;
    merged.replica_reads += report.replica_reads;
    if (merged.error.empty()) {
      merged.error = report.error;
    }
  }
  return merged;
}

}  // namespace itree::net
