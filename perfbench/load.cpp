// Load generator and measurement program of the repository benchmark
// (README.md).
//
// One invocation runs one workload end to end:
//   1. builds the workload's inputs from --seed (restart: a data
//      directory holding a v5 snapshot plus a WAL tail);
//   2. starts the deployed daemon (itree-served) as a child process
//      several times, timing spawn -> ready to serve (setup_s), and
//      keeps the last one;
//   3. pre-populates every campaign over the wire;
//   4. drives a closed-loop warm-up and then the timed phase: one
//      connection for all campaigns with single-request frames, one per
//      campaign with EVENT_BATCH frames (at most four connections and
//      threads);
//   5. runs the payout (audit + full rewards fetch of every campaign);
//   6. stops the daemon and checks every output against an in-process
//      RewardService replay of the same stream: join ids, point reward
//      answers and final reward vectors bit for bit, audit divergence
//      < 1e-9.
// The load process and the daemon share one CPU at a time and move to
// the fastest other CPU every tenth of a second (Placement).
// With --trace 1 it also times each layer's public functions on the
// inputs the workload sent (codec, RewardService, WAL, snapshot,
// recovery, mapped images), puts an itree-router in front of the daemon
// for a hop probe, reads daemon counters from SERVER_STATS and /proc,
// and reports the per-layer ledger instead of the end-to-end metrics.
// The last stdout line is one JSON object; run.py wraps it.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "core/factory.h"
#include "core/tdrm.h"
#include "net/client.h"
#include "net/protocol.h"
#include "proc.h"
#include "server/event_log.h"
#include "server/reward_service.h"
#include "storage/snapshot.h"
#include "storage/storage.h"
#include "storage/wal.h"
#include "util/args.h"
#include "util/rng.h"
#include "util/stats.h"

namespace {

using namespace itree;
using perfbench::Child;
using perfbench::now_s;
using perfbench::ProcSample;
using perfbench::sample_proc;

constexpr const char* kHost = "127.0.0.1";

// --- Workloads -----------------------------------------------------------

/// One traffic mix. Joins pick their referrer under the root, among the
/// most recent joiners, or uniformly; the remaining share after joins
/// and contributions is uniform point reward queries.
struct Mix {
  double p_join = 0.0;
  double p_contribute = 0.0;
  double p_root = 0.15;
  double p_recent = 0.0;
  std::size_t recent = 16;
  double join_lo = 0.0, join_hi = 3.0;
  double contribute_lo = 0.0, contribute_hi = 2.0;
};

struct Workload {
  std::string name;
  std::string mechanism;
  std::uint32_t campaigns = 4;
  bool durable = false;        ///< --data-dir with interval fsync
  std::uint64_t snapshot_every = 0;
  std::size_t base_per_campaign = 0;
  std::size_t tail_events = 0;      ///< restart: WAL tail after the image
  std::uint32_t tail_campaigns = 0; ///< restart: tail on campaigns [0, n)
  /// Set-up ends only once every campaign acknowledged one contribute:
  /// after a restart the first write into a campaign's mapped columns
  /// copies them (privatization), which is part of getting ready to
  /// serve.
  bool setup_writes = false;
  std::uint32_t batch = 1;     ///< > 1: EVENT_BATCH frames of this size
  std::uint32_t pipeline = 1;
  bool read_probe = false;     ///< paced point reads beside write streams
  int setup_spawns = 3;
  Mix base;
  Mix tail;
  Mix timed;
};

// Why each workload exists is in README.md. Sizes are chosen so the
// tree grows by no more than about a fifth during the timed phase, which
// keeps the per-request cost stationary from its start to its end.
Workload make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "interactive") {
    w.mechanism = "geometric";
    w.campaigns = 4;
    w.base_per_campaign = 350000;
    w.setup_spawns = 40;
    w.timed = Mix{.p_join = 0.10, .p_contribute = 0.40};
    w.base = Mix{.p_join = 1.0};
  } else if (name == "durable_ingest") {
    // Referrals skew to recent joiners (deep trees) and contributions
    // span many multiples of mu = 1 (long RCT chains). The timed phase
    // adds small contributions so chain lengths stay nearly constant.
    w.mechanism = "tdrm";
    w.campaigns = 3;
    w.durable = true;
    w.snapshot_every = 300000;
    w.base_per_campaign = 300000;
    w.batch = 64;
    w.pipeline = 4;
    w.read_probe = true;
    w.setup_spawns = 40;
    w.base = Mix{.p_join = 1.0, .p_root = 0.01, .p_recent = 0.9,
                 .join_lo = 8.0, .join_hi = 24.0};
    w.timed = w.base;
    w.timed.p_join = 0.03;
    w.timed.p_contribute = 0.97;
    w.timed.contribute_hi = 1.0;
  } else if (name == "restart") {
    w.mechanism = "cdrm1";
    w.campaigns = 4;
    w.durable = true;
    w.base_per_campaign = 500000;
    w.tail_events = 200000;
    w.tail_campaigns = 2;
    w.setup_writes = true;
    w.setup_spawns = 8;
    w.base = Mix{.p_join = 1.0};
    w.tail = Mix{.p_join = 0.5, .p_contribute = 0.5};
    w.timed = Mix{.p_join = 0.0, .p_contribute = 0.05};
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

/// One campaign's seeded event and query stream. Ids are assigned
/// sequentially per campaign, so the stream knows every id the server
/// will hand out and predicts it.
class Stream {
 public:
  enum class Op { kJoin, kContribute, kQuery };

  explicit Stream(Rng rng) : rng_(rng) {}

  std::size_t participants() const { return participants_; }

  Op next_op(const Mix& mix) {
    const double u = rng_.uniform01();
    if (participants_ == 0 || u < mix.p_join) {
      return Op::kJoin;
    }
    return u < mix.p_join + mix.p_contribute ? Op::kContribute : Op::kQuery;
  }

  net::BatchEvent join(const Mix& mix) {
    net::BatchEvent event;
    event.kind = net::BatchEvent::kJoin;
    const double u = rng_.uniform01();
    if (participants_ == 0 || u < mix.p_root) {
      event.node = kRoot;
    } else if (u < mix.p_root + mix.p_recent) {
      event.node =
          participants_ - rng_.index(std::min(mix.recent, participants_));
    } else {
      event.node = 1 + rng_.index(participants_);
    }
    event.amount = rng_.uniform(mix.join_lo, mix.join_hi);
    ++participants_;
    return event;
  }

  net::BatchEvent contribute(const Mix& mix) {
    net::BatchEvent event;
    event.kind = net::BatchEvent::kContribute;
    event.node = 1 + rng_.index(participants_);
    event.amount = rng_.uniform(mix.contribute_lo, mix.contribute_hi);
    return event;
  }

  /// A join or contribution per the mix's write shares.
  net::BatchEvent write(const Mix& mix) {
    return next_op(mix) == Op::kJoin ? join(mix) : contribute(mix);
  }

  NodeId target() { return static_cast<NodeId>(1 + rng_.index(participants_)); }

 private:
  Rng rng_;
  std::size_t participants_ = 0;
};

/// The first `n` point-read targets `stream` will send under `mix`,
/// drawn on a copy; none when the mix has no reads.
std::vector<NodeId> upcoming_queries(Stream stream, const Mix& mix,
                                     std::size_t n) {
  std::vector<NodeId> out;
  while (mix.p_join + mix.p_contribute < 1.0 && out.size() < n) {
    switch (stream.next_op(mix)) {
      case Stream::Op::kQuery:
        out.push_back(stream.target());
        break;
      case Stream::Op::kJoin:
        stream.join(mix);
        break;
      case Stream::Op::kContribute:
        stream.contribute(mix);
        break;
    }
  }
  return out;
}

Event to_event(const net::BatchEvent& event) {
  if (event.kind == net::BatchEvent::kJoin) {
    return JoinEvent{static_cast<NodeId>(event.node), event.amount};
  }
  return ContributeEvent{static_cast<NodeId>(event.node), event.amount};
}

// --- Logs of what was sent and answered ---------------------------------

enum class Phase : std::uint8_t { kBase, kWarm, kTimed };
enum class FrameKind : std::uint8_t { kJoin, kContribute, kQuery, kBatch };

struct LoggedFrame {
  FrameKind kind = FrameKind::kQuery;
  Phase phase = Phase::kTimed;
  bool traced = false;           ///< sent inside a traced segment
  std::uint32_t first_event = 0; ///< into CampaignLog::events
  std::uint32_t events = 0;
  NodeId node = 0;               ///< query target
  double value = 0.0;            ///< query answer
  double sent = 0.0, send_done = 0.0, done = 0.0;
};

struct CampaignLog {
  std::vector<net::BatchEvent> events;
  std::vector<LoggedFrame> frames;
};

/// State shared by the load threads: failures, check errors and the
/// one-shot id-prediction fault.
struct Shared {
  std::mutex mutex;
  std::vector<std::string> errors;
  std::atomic<std::uint64_t> failed{0};
  std::atomic<bool> id_fault{false};

  void error(const std::string& what) {
    const std::lock_guard<std::mutex> lock(mutex);
    errors.push_back(what);
  }
  void fail(const std::string& what) {
    failed.fetch_add(1);
    error(what);
  }
  bool take_id_fault() { return id_fault.exchange(false); }
};

/// Warm-up then timed phase. With tracing on, the timed phase is cut
/// into four equal segments and the second and fourth record
/// per-frame send spans, so the traced run measures its own overhead.
struct Schedule {
  double warm_end = 0.0;
  double end = 0.0;
  bool trace = false;

  Phase phase_at(double t) const {
    return t < warm_end ? Phase::kWarm : Phase::kTimed;
  }
  bool traced_at(double t) const {
    if (!trace || t < warm_end) {
      return false;
    }
    const int quarter =
        static_cast<int>(4.0 * (t - warm_end) / (end - warm_end));
    return quarter % 2 == 1;
  }
};

// --- Load ----------------------------------------------------------------

/// One JOIN/CONTRIBUTE/REWARD request per frame over one connection that
/// takes the campaigns in turn, closed loop: each request waits for its
/// answer. On the one shared core this makes every round trip the same
/// fixed sequence of two context switches; several connections let the
/// scheduler interleave them differently from run to run.
void drive_single(net::Client& client, std::vector<Stream>& streams,
                  const Mix& mix, std::vector<CampaignLog>& logs,
                  const Schedule& schedule, Shared& shared) {
  for (std::uint32_t campaign = 0;;
       campaign = (campaign + 1) % static_cast<std::uint32_t>(streams.size())) {
    const double start = now_s();
    if (start >= schedule.end) {
      return;
    }
    Stream& stream = streams[campaign];
    CampaignLog& log = logs[campaign];
    LoggedFrame frame;
    frame.phase = schedule.phase_at(start);
    frame.traced = schedule.traced_at(start);
    net::Request request;
    request.campaign = campaign;
    std::uint64_t expected_id = 0;
    const Stream::Op op = stream.next_op(mix);
    if (op == Stream::Op::kQuery) {
      frame.kind = FrameKind::kQuery;
      request.type = net::MsgType::kReward;
      request.node = frame.node = stream.target();
    } else {
      const net::BatchEvent event =
          op == Stream::Op::kJoin ? stream.join(mix) : stream.contribute(mix);
      frame.kind = op == Stream::Op::kJoin ? FrameKind::kJoin
                                           : FrameKind::kContribute;
      request.type = op == Stream::Op::kJoin ? net::MsgType::kJoin
                                             : net::MsgType::kContribute;
      request.node = event.node;
      request.amount = event.amount;
      frame.first_event = static_cast<std::uint32_t>(log.events.size());
      frame.events = 1;
      log.events.push_back(event);
      if (op == Stream::Op::kJoin) {
        expected_id = stream.participants();
        if (frame.phase == Phase::kTimed && shared.take_id_fault()) {
          ++expected_id;
        }
      }
    }
    frame.sent = now_s();
    client.send_request(request);
    if (frame.traced) {
      frame.send_done = now_s();
    }
    const net::Response response = client.read_response();
    frame.done = now_s();
    if (!response.ok()) {
      shared.fail("campaign " + std::to_string(campaign) +
                  ": error frame: " + response.message);
      return;
    }
    if (frame.kind == FrameKind::kJoin && response.id != expected_id) {
      shared.error("campaign " + std::to_string(campaign) +
                   ": JOIN answered id " + std::to_string(response.id) +
                   ", predicted " + std::to_string(expected_id));
      return;
    }
    frame.value = response.value;
    log.frames.push_back(frame);
  }
}

/// Pipelined EVENT_BATCH frames with predicted ids. `schedule` null:
/// the pre-population, exactly `base_events` events in kBase frames.
void drive_batched(net::Client& client, std::uint32_t campaign,
                   Stream& stream, const Mix& mix, CampaignLog& log,
                   const Schedule* schedule, std::size_t base_events,
                   std::uint32_t batch, std::uint32_t pipeline,
                   Shared& shared) {
  struct Inflight {
    std::size_t frame = 0;
    std::vector<std::uint64_t> expected;
  };
  std::deque<Inflight> inflight;
  const auto settle = [&](std::size_t limit) {
    while (inflight.size() > limit) {
      const net::Response response = client.read_response();
      LoggedFrame& frame = log.frames[inflight.front().frame];
      frame.done = now_s();
      if (!response.ok()) {
        shared.fail("campaign " + std::to_string(campaign) +
                    ": EVENT_BATCH error: " + response.message);
        return false;
      }
      if (response.status != net::Status::kOkBatch ||
          response.batch_results != inflight.front().expected) {
        shared.error("campaign " + std::to_string(campaign) +
                     ": EVENT_BATCH answer does not match the predicted "
                     "ids");
        return false;
      }
      inflight.pop_front();
    }
    return true;
  };

  std::size_t sent_events = 0;
  for (;;) {
    const double start = now_s();
    if (schedule != nullptr ? start >= schedule->end
                            : sent_events >= base_events) {
      break;
    }
    LoggedFrame frame;
    frame.kind = FrameKind::kBatch;
    frame.phase = schedule != nullptr ? schedule->phase_at(start) : Phase::kBase;
    frame.traced = schedule != nullptr && schedule->traced_at(start);
    frame.first_event = static_cast<std::uint32_t>(log.events.size());
    const std::size_t count =
        schedule != nullptr
            ? batch
            : std::min<std::size_t>(batch, base_events - sent_events);
    net::Request request;
    request.type = net::MsgType::kEventBatch;
    request.campaign = campaign;
    Inflight pending;
    for (std::size_t i = 0; i < count; ++i) {
      const net::BatchEvent event = stream.write(mix);
      pending.expected.push_back(
          event.kind == net::BatchEvent::kJoin ? stream.participants() : 0);
      request.batch.push_back(event);
      log.events.push_back(event);
    }
    if (frame.phase == Phase::kTimed && shared.take_id_fault()) {
      pending.expected.front() ^= 1;
    }
    frame.events = static_cast<std::uint32_t>(count);
    sent_events += count;
    if (!settle(pipeline - 1)) {
      return;
    }
    pending.frame = log.frames.size();
    frame.sent = now_s();
    log.frames.push_back(frame);
    client.send_request(request);
    if (frame.traced) {
      log.frames.back().send_done = now_s();
    }
    inflight.push_back(std::move(pending));
  }
  settle(0);
}

/// Paced point reads over the pre-populated participants, one every
/// `interval` seconds, beside write-only streams: read latency under
/// ingest. Answers are not replayed (their interleaving with the
/// writers is not fixed), only checked to be finite and non-negative.
void drive_probe(net::Client& client, const std::vector<std::size_t>& base,
                 Rng rng, std::vector<LoggedFrame>& frames,
                 const Schedule& schedule, double interval, Shared& shared) {
  double next = now_s();
  for (std::uint64_t i = 0;; ++i) {
    double t = now_s();
    if (t >= schedule.end) {
      return;
    }
    if (t < next) {
      std::this_thread::sleep_for(std::chrono::duration<double>(next - t));
      t = now_s();
    }
    next = std::max(next + interval, t);
    net::Request request;
    request.type = net::MsgType::kReward;
    request.campaign = static_cast<std::uint32_t>(i % base.size());
    request.node = 1 + rng.index(base[request.campaign]);
    LoggedFrame frame;
    frame.phase = schedule.phase_at(t);
    frame.sent = now_s();
    client.send_request(request);
    const net::Response response = client.read_response();
    frame.done = now_s();
    if (!response.ok() || !std::isfinite(response.value) ||
        response.value < 0.0) {
      shared.fail("read probe: bad answer");
      return;
    }
    frames.push_back(frame);
  }
}

// --- Deployment ----------------------------------------------------------

struct Paths {
  std::string bin_dir;
  std::string work_dir;
  std::string data_dir() const { return work_dir + "/data"; }
};

/// The daemon of one deployment.
struct Deployment {
  std::unique_ptr<Child> served;
  std::uint16_t port = 0;

  pid_t pid() const { return served->pid(); }
};

/// Where the load process and the daemon run: all on one CPU at a time,
/// moving at every step to whichever other allowed CPU runs a short spin
/// loop fastest. On a shared host each vCPU has slow periods of its own,
/// lasting seconds, in which it runs at a third of its speed; a run that
/// stays on one CPU takes whatever that CPU gets. The spin probes run on
/// the other CPUs, so they take no time from the measured one. One CPU
/// keeps a round trip to CPU work and two context switches (no
/// cross-CPU wake-ups, whose cost the host sets).
class Placement {
 public:
  Placement() : cpus_(perfbench::allowed_cpus()) {}

  /// Moves this process, and the daemon when there is one, to the
  /// fastest other CPU. A daemon spawned afterwards inherits the CPU.
  void step(pid_t daemon = -1) {
    int best = cpus_.front();
    double best_rate = -1.0;
    for (const int cpu : cpus_) {
      if (cpu == current_ && cpus_.size() > 1) {
        continue;
      }
      const double rate = spin_rate(cpu);
      if (rate > best_rate) {
        best = cpu;
        best_rate = rate;
      }
    }
    current_ = best;
    perfbench::pin_process(0, best);
    if (daemon > 0) {
      perfbench::pin_process(daemon, best);
    }
  }

  std::size_t cpu_count() const { return cpus_.size(); }
  /// Seconds spent in spin probes, to take out of the load's CPU.
  double probe_s() const { return probe_s_; }

 private:
  /// Iterations per second of a short arithmetic loop on `cpu`; moves
  /// only the calling thread there.
  double spin_rate(int cpu) {
    cpu_set_t mask;
    CPU_ZERO(&mask);
    CPU_SET(cpu, &mask);
    ::sched_setaffinity(0, sizeof(mask), &mask);
    constexpr double kProbe = 0.004;
    volatile std::uint64_t sink = 0;
    std::uint64_t rounds = 0;
    const double start = now_s();
    double elapsed = 0.0;
    while (elapsed < kProbe) {
      for (std::uint64_t i = 0; i < 256; ++i) {
        sink = sink + i * i;
      }
      ++rounds;
      elapsed = now_s() - start;
    }
    probe_s_ += elapsed;
    return static_cast<double>(rounds) / elapsed;
  }

  std::vector<int> cpus_;
  int current_ = -1;
  double probe_s_ = 0.0;
};

std::vector<std::string> served_args(const Workload& w, const Paths& paths) {
  // --threads 1: with one reactor the default pool hands each tick's
  // campaign groups to other threads, which on the shared core only
  // adds hand-offs (it halved throughput and made runs erratic).
  std::vector<std::string> args = {
      paths.bin_dir + "/itree-served", "--port", "0", "--campaigns",
      std::to_string(w.campaigns), "--mechanism", w.mechanism,
      "--reactors", "1", "--threads", "1"};
  if (w.durable) {
    // One fsync per half second: with the 20 ms default, one frame in ten
    // waits behind an fsync, and the write tail becomes the host disk's
    // fsync latency, which varied by a third from run to run.
    args.insert(args.end(), {"--data-dir", paths.data_dir(), "--fsync",
                             "interval", "--fsync-interval", "0.5"});
    if (w.snapshot_every > 0) {
      args.insert(args.end(),
                  {"--snapshot-every", std::to_string(w.snapshot_every)});
    }
  }
  return args;
}

/// Spawns the daemon and returns once it answered one SERVER_STATS
/// request and acknowledged `writes` (one contribute per campaign, or
/// none); *setup_s receives spawn -> last answer.
Deployment launch(const Workload& w, const Paths& paths,
                  const std::vector<net::BatchEvent>& writes,
                  double* setup_s) {
  Deployment d;
  const double start = now_s();
  d.served = std::make_unique<Child>(served_args(w, paths));
  d.port = d.served->wait_listening(120.0);
  net::Client client = net::Client::connect_with_retry(kHost, d.port);
  client.server_stats();
  for (std::uint32_t c = 0; c < writes.size(); ++c) {
    client.contribute(c, static_cast<NodeId>(writes[c].node),
                      writes[c].amount);
  }
  *setup_s = now_s() - start;
  return d;
}

double process_cpu_s() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

// --- Reference state and storage layer calls ------------------------------

using Services = std::vector<std::unique_ptr<RewardService>>;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(),
                    [](double x, double y) { return same_bits(x, y); });
}

/// The steps of a storage snapshot (copy the trees and accumulators,
/// encode v5, write durably); returns its seconds.
double write_snapshot(const std::string& dir, const Services& services,
                      const Mechanism& mechanism, std::uint64_t last_seq) {
  std::filesystem::create_directories(dir);
  const double start = now_s();
  storage::SnapshotData data;
  data.last_seq = last_seq;
  data.mechanism = mechanism.display_name();
  for (const auto& service : services) {
    storage::CampaignSnapshot snap;
    snap.events_applied = service->events_applied();
    snap.tree = service->tree();
    snap.aggregate_kind =
        static_cast<std::uint8_t>(service->aggregate_kind());
    snap.aggregates = service->export_aggregates();
    data.campaigns.push_back(std::move(snap));
  }
  storage::save_snapshot(dir, data, storage::SnapshotFormat::kV5);
  return now_s() - start;
}

struct RecoveryLedger {
  double recover_s = 0.0;
  double snapshot_load_s = 0.0;
  double tail_replay_events_per_s = 0.0;
  double image_bytes_per_node = 0.0;
  double privatize_s = 0.0;
  double query_ns = 0.0;  ///< point reads on the recovered services
};

/// Times recover_campaigns() on `dir`, then point reads of `queries`
/// (per campaign) on the recovered services, which hold their trees the
/// way a restarted daemon does (columns borrowed from the mapped image
/// until written), and checks the recovered state against `expected`.
/// Then maps the newest image on its own (MappedSnapshot verify +
/// materialize) and times the first write into each campaign's borrowed
/// columns.
RecoveryLedger recovery_pass(const std::string& dir, const Services& expected,
                             const Mechanism& mechanism,
                             const std::vector<std::vector<NodeId>>& queries,
                             Shared& shared) {
  RecoveryLedger ledger;
  double start = now_s();
  std::uint64_t tail_records = 0;
  {
    storage::RecoveryResult recovered =
        storage::recover_campaigns(mechanism, expected.size(), dir);
    ledger.recover_s = now_s() - start;
    tail_records = recovered.report.tail_records;
    std::size_t reads = 0;
    double read_s = 0.0;
    for (std::size_t c = 0; c < queries.size(); ++c) {
      const RewardService& service = recovered.campaigns[c]->service();
      std::vector<double> answers(queries[c].size());
      start = now_s();
      for (std::size_t i = 0; i < queries[c].size(); ++i) {
        answers[i] = service.reward(queries[c][i]);
      }
      read_s += now_s() - start;
      reads += queries[c].size();
      for (std::size_t i = 0; i < queries[c].size(); ++i) {
        if (!same_bits(answers[i], expected[c]->reward(queries[c][i]))) {
          shared.error("storage recovery of campaign " + std::to_string(c) +
                       " answers a point read differently from the replay");
          break;
        }
      }
    }
    ledger.query_ns = reads > 0 ? read_s * 1e9 / static_cast<double>(reads)
                                : 0.0;
    for (std::size_t c = 0; c < expected.size(); ++c) {
      if (!same_bits(recovered.campaigns[c]->service().rewards(),
                     expected[c]->rewards())) {
        shared.error("storage recovery of campaign " + std::to_string(c) +
                     " differs from the replay");
      }
    }
  }
  const auto snapshots = storage::list_snapshots(dir);
  const std::string path = dir + "/" + snapshots.back().second;
  start = now_s();
  storage::MappedSnapshot mapped(path);
  mapped.verify();
  storage::SnapshotData data = mapped.materialize();
  ledger.snapshot_load_s = now_s() - start;
  double nodes = 0.0;
  for (const storage::CampaignSnapshot& snap : data.campaigns) {
    nodes += static_cast<double>(snap.tree.node_count());
  }
  ledger.image_bytes_per_node =
      static_cast<double>(std::filesystem::file_size(path)) / nodes;
  ledger.tail_replay_events_per_s =
      static_cast<double>(tail_records) /
      std::max(ledger.recover_s - ledger.snapshot_load_s, 1e-6);
  for (storage::CampaignSnapshot& snap : data.campaigns) {
    RecordingService service(mechanism);
    service.adopt_snapshot(std::move(snap.tree), snap.events_applied,
                           snap.aggregates);
    start = now_s();
    service.contribute(1, 0.25);
    ledger.privatize_s += now_s() - start;
  }
  return ledger;
}

struct WalLedger {
  double append_ns_per_event = 0.0;
  double wal_bytes_per_event = 0.0;
  double commit_p50_us = 0.0;
  double commit_p99_us = 0.0;
  double mean_commit_us = 0.0;
  double fsyncs_per_commit = 0.0;
};

/// Appends every post-pre-population event to a WAL writer, frame by
/// frame, with one group commit per frame (interval fsync, the daemon
/// default).
WalLedger wal_pass(const std::string& dir, std::uint64_t next_seq,
                   const std::vector<CampaignLog>& logs) {
  std::filesystem::create_directories(dir);
  storage::WalWriter writer(dir, next_seq, storage::FsyncPolicy::kInterval,
                            0.02, 8u << 20);
  double append_s = 0.0;
  std::uint64_t events = 0;
  std::vector<double> commits;
  for (std::size_t c = 0; c < logs.size(); ++c) {
    for (const LoggedFrame& frame : logs[c].frames) {
      if (frame.phase == Phase::kBase || frame.events == 0) {
        continue;
      }
      const double start = now_s();
      for (std::uint32_t i = 0; i < frame.events; ++i) {
        writer.append(static_cast<std::uint32_t>(c),
                      to_event(logs[c].events[frame.first_event + i]));
      }
      const double appended = now_s();
      writer.commit();
      commits.push_back(now_s() - appended);
      append_s += appended - start;
      events += frame.events;
    }
  }
  WalLedger ledger;
  if (events == 0) {
    return ledger;
  }
  ledger.append_ns_per_event = append_s * 1e9 / static_cast<double>(events);
  ledger.wal_bytes_per_event = static_cast<double>(writer.bytes_appended()) /
                               static_cast<double>(events);
  ledger.commit_p50_us = percentile(commits, 50) * 1e6;
  ledger.commit_p99_us = percentile(commits, 99) * 1e6;
  double sum = 0.0;
  for (const double commit : commits) {
    sum += commit;
  }
  ledger.mean_commit_us = sum * 1e6 / static_cast<double>(commits.size());
  ledger.fsyncs_per_commit = static_cast<double>(writer.fsync_count()) /
                             static_cast<double>(commits.size());
  writer.sync();
  return ledger;
}

struct EngineLedger {
  double apply_s = 0.0, flush_s = 0.0, query_s = 0.0;
  std::uint64_t events = 0, queries = 0, walk = 0, frames = 0;
};

/// Replays one campaign's frames of the given phases through the
/// reference service the way the daemon applies them (one batch per
/// frame), checking every point reward answer bit for bit. With a
/// ledger, timed-phase frames are timed and their walks counted.
void replay(RewardService& service, std::uint32_t campaign,
            const CampaignLog& log, bool base_phase, double mu,
            EngineLedger* ledger, Shared& shared) {
  std::vector<NodeId> touched;
  for (const LoggedFrame& frame : log.frames) {
    if ((frame.phase == Phase::kBase) != base_phase) {
      continue;
    }
    const bool timed = ledger != nullptr && frame.phase == Phase::kTimed;
    if (frame.kind == FrameKind::kQuery) {
      const double start = timed ? now_s() : 0.0;
      const double value = service.reward(frame.node);
      if (timed) {
        ledger->query_s += now_s() - start;
        ++ledger->queries;
        ++ledger->frames;
      }
      if (!same_bits(value, frame.value)) {
        shared.error("campaign " + std::to_string(campaign) +
                     ": REWARD answer for node " +
                     std::to_string(frame.node) + " differs from the replay");
      }
      continue;
    }
    touched.clear();
    const double start = timed ? now_s() : 0.0;
    service.begin_batch();
    for (std::uint32_t i = 0; i < frame.events; ++i) {
      const net::BatchEvent& event = log.events[frame.first_event + i];
      const std::optional<NodeId> id = service.apply(to_event(event));
      touched.push_back(id.value_or(static_cast<NodeId>(event.node)));
    }
    const double applied = timed ? now_s() : 0.0;
    service.flush_batch();
    if (!timed) {
      continue;
    }
    ledger->apply_s += applied - start;
    ledger->flush_s += now_s() - applied;
    ledger->events += frame.events;
    ++ledger->frames;
    const Tree& tree = service.tree();
    for (const NodeId node : touched) {
      ledger->walk += tree.depth(node);
      if (mu > 0.0) {
        ledger->walk +=
            static_cast<std::uint64_t>(std::ceil(tree.contribution(node) / mu));
      }
    }
  }
}

// --- Small isolated measurements -----------------------------------------

struct CodecLedger {
  double decode_ns_per_frame = 0.0;
  double encode_ns_per_frame = 0.0;
  double wire_bytes_per_event = 0.0;
};

/// Rebuilds the timed phase's request and response frames and times the
/// server-side halves of the codec on them: decode_request and
/// encode_response, median of three passes.
CodecLedger codec_pass(const std::vector<CampaignLog>& logs, bool durable,
                       std::uint64_t* sink) {
  std::vector<std::string> payloads;
  std::vector<net::Response> responses;
  double event_bytes = 0.0, events = 0.0;
  for (std::size_t c = 0; c < logs.size(); ++c) {
    for (const LoggedFrame& frame : logs[c].frames) {
      if (frame.phase != Phase::kTimed || payloads.size() >= 200000) {
        continue;
      }
      net::Request request;
      request.campaign = static_cast<std::uint32_t>(c);
      net::Response response;
      response.seq = durable ? 1 : 0;
      const net::BatchEvent* first = frame.events > 0
                                         ? &logs[c].events[frame.first_event]
                                         : nullptr;
      switch (frame.kind) {
        case FrameKind::kQuery:
          request.type = net::MsgType::kReward;
          request.node = frame.node;
          response.status = net::Status::kOkValue;
          response.value = frame.value;
          response.seq = 0;
          break;
        case FrameKind::kJoin:
        case FrameKind::kContribute:
          request.type = frame.kind == FrameKind::kJoin
                             ? net::MsgType::kJoin
                             : net::MsgType::kContribute;
          request.node = first->node;
          request.amount = first->amount;
          response.status = frame.kind == FrameKind::kJoin
                                ? net::Status::kOkId
                                : net::Status::kOk;
          response.id = first->node + 1;
          break;
        case FrameKind::kBatch:
          request.type = net::MsgType::kEventBatch;
          request.batch.assign(first, first + frame.events);
          response.status = net::Status::kOkBatch;
          response.batch_count = frame.events;
          for (std::uint32_t i = 0; i < frame.events; ++i) {
            response.batch_results.push_back(first[i].node + 1);
          }
          break;
      }
      payloads.push_back(net::encode_request(request));
      if (frame.events > 0) {
        event_bytes += static_cast<double>(payloads.back().size() + 8 +
                                           net::encode_response(response).size());
        events += frame.events;
      }
      responses.push_back(std::move(response));
    }
  }
  CodecLedger ledger;
  if (payloads.empty()) {
    return ledger;
  }
  std::vector<double> decode, encode;
  for (int pass = 0; pass < 3; ++pass) {
    double start = now_s();
    for (const std::string& payload : payloads) {
      *sink += net::decode_request(payload).node;
    }
    decode.push_back(now_s() - start);
    start = now_s();
    for (const net::Response& response : responses) {
      *sink += net::encode_response(response).size();
    }
    encode.push_back(now_s() - start);
  }
  const double frames = static_cast<double>(payloads.size());
  ledger.decode_ns_per_frame = percentile(decode, 50) * 1e9 / frames;
  ledger.encode_ns_per_frame = percentile(encode, 50) * 1e9 / frames;
  ledger.wire_bytes_per_event = events > 0 ? event_bytes / events : 0.0;
  return ledger;
}

/// Cost of one small send or receive syscall on loopback TCP, from a
/// single-threaded ping-pong: the floor under every frame's syscalls.
double syscall_ns() {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  ::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  ::listen(listener, 1);
  ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len);
  const int a = ::socket(AF_INET, SOCK_STREAM, 0);
  ::connect(a, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  const int b = ::accept(listener, nullptr, nullptr);
  const int one = 1;
  ::setsockopt(a, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::setsockopt(b, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  char buffer[64] = {};
  constexpr int kRounds = 20000;
  bool ok = b >= 0;
  const double start = now_s();
  for (int i = 0; ok && i < kRounds; ++i) {
    ok = ::send(a, buffer, 32, 0) == 32 && ::recv(b, buffer, 64, 0) == 32 &&
         ::send(b, buffer, 32, 0) == 32 && ::recv(a, buffer, 64, 0) == 32;
  }
  const double elapsed = now_s() - start;
  ::close(a);
  ::close(b);
  ::close(listener);
  if (!ok) {
    throw std::runtime_error("loopback syscall probe failed");
  }
  return elapsed * 1e9 / (4.0 * kRounds);
}

double p50_us(std::vector<double> seconds) {
  return percentile(std::move(seconds), 50) * 1e6;
}

struct RouterLedger {
  double hop_p50_us = 0.0;
  double cpu_us_per_frame = 0.0;
};

/// Puts an itree-router in front of the daemon, sends the same point
/// reads for campaign 0 directly and through the router, alternating,
/// and reports the p50 difference and the router's CPU per frame.
RouterLedger router_probe(const Workload& w, const Deployment& d,
                          const Paths& paths, std::size_t participants,
                          Shared& shared) {
  Child router(std::vector<std::string>{
      paths.bin_dir + "/itree-router", "--port", "0", "--campaigns",
      std::to_string(w.campaigns), "--shards",
      std::string(kHost) + ":" + std::to_string(d.port)});
  const std::uint16_t routed_port = router.wait_listening(60.0);
  const pid_t router_pid = router.pid();
  net::Client direct = net::Client::connect_with_retry(kHost, d.port);
  net::Client routed = net::Client::connect_with_retry(kHost, routed_port);
  Rng rng(12345);
  constexpr int kFrames = 2000;
  std::vector<double> direct_s, routed_s;
  const double cpu_before = sample_proc(router_pid).cpu_s;
  for (int i = 0; i < kFrames; ++i) {
    const NodeId node = static_cast<NodeId>(1 + rng.index(participants));
    double start = now_s();
    const double a = direct.reward(0, node);
    direct_s.push_back(now_s() - start);
    start = now_s();
    const double b = routed.reward(0, node);
    routed_s.push_back(now_s() - start);
    if (!same_bits(a, b)) {
      shared.error("router answered a different reward than the shard");
    }
  }
  RouterLedger ledger;
  ledger.cpu_us_per_frame =
      (sample_proc(router_pid).cpu_s - cpu_before) * 1e6 / kFrames;
  ledger.hop_p50_us = p50_us(routed_s) - p50_us(direct_s);
  router.stop(10.0);
  return ledger;
}

/// The run's figure from per-window values: the upper quartile of
/// rates, the lower quartile of costs and latencies. In busy periods the
/// host runs a vCPU, or the whole machine, at a fraction of its speed for
/// seconds at a time; the best quartile shows what the code does when the
/// host lets it run, and a change to the code moves every window alike.
double best_quartile(const std::vector<double>& windows, bool higher_better) {
  return windows.empty() ? 0.0 : percentile(windows, higher_better ? 75 : 25);
}

struct WindowLatency {
  double p50_ms = 0.0;
  double tail_ms = 0.0;
  double tail_percentile = 99.0;
};

/// Best quartile over windows of each window's p50 and tail latency. The
/// tail is the p99, or the highest of p95/p90/p50 with at least ten
/// samples beyond it in the median window; windows with fewer samples
/// than that (the slowest ones) give no tail.
WindowLatency window_latency(const std::vector<std::vector<double>>& windows) {
  std::vector<double> counts;
  for (const std::vector<double>& seconds : windows) {
    counts.push_back(static_cast<double>(seconds.size()));
  }
  WindowLatency out;
  if (counts.empty()) {
    return out;
  }
  const double typical = percentile(counts, 50);
  out.tail_percentile = 50.0;
  for (const double candidate : {99.0, 95.0, 90.0}) {
    if (typical * (1.0 - candidate / 100.0) >= 10.0) {
      out.tail_percentile = candidate;
      break;
    }
  }
  const double needed = 10.0 / (1.0 - out.tail_percentile / 100.0);
  std::vector<double> p50s, tails;
  for (const std::vector<double>& seconds : windows) {
    if (seconds.empty()) {
      continue;
    }
    p50s.push_back(percentile(seconds, 50) * 1e3);
    if (static_cast<double>(seconds.size()) >= needed) {
      tails.push_back(percentile(seconds, out.tail_percentile) * 1e3);
    }
  }
  out.p50_ms = best_quartile(p50s, false);
  out.tail_ms = best_quartile(tails, false);
  return out;
}

/// Parses `"key":<number>` out of a daemon's JSON exit report.
double report_number(const std::string& output, const std::string& key) {
  const std::size_t at = output.find("\"" + key + "\":");
  return at == std::string::npos
             ? 0.0
             : std::strtod(output.c_str() + at + key.size() + 3, nullptr);
}

class JsonObject {
 public:
  void add(const std::string& key, double value) {
    char text[64];
    std::snprintf(text, sizeof(text), "%.17g", value);
    put(key, std::isfinite(value) ? text : "null");
  }
  void add(const std::string& key, const std::string& raw) { put(key, raw); }
  void add_string(const std::string& key, const std::string& value) {
    put(key, quoted(value));
  }
  static std::string quoted(const std::string& value) {
    std::string text = "\"";
    for (const char ch : value) {
      if (ch == '"' || ch == '\\') {
        text += '\\';
      }
      text += (ch == '\n' ? ' ' : ch);
    }
    return text + "\"";
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void put(const std::string& key, const std::string& raw) {
    body_ += (body_.empty() ? "\"" : ",\"") + key + "\":" + raw;
  }
  std::string body_;
};

// --- One run ------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string fault;  ///< "", "reward" or "id"
  std::string spans_path;
};

int run(const Options& options, const Paths& paths) {
  const Workload w = make_workload(options.workload);
  const MechanismPtr mechanism =
      make_mechanism(w.mechanism, parse_param_string(""));
  double mu = 0.0;
  if (const auto* tdrm = dynamic_cast<const Tdrm*>(mechanism.get())) {
    mu = tdrm->params().mu;
  }
  Shared shared;
  shared.id_fault = options.fault == "id";
  JsonObject metrics, report;
  const Rng root(options.seed);

  std::vector<Stream> streams;
  std::vector<CampaignLog> logs(w.campaigns);
  Services reference;
  for (std::uint32_t c = 0; c < w.campaigns; ++c) {
    streams.emplace_back(root.fork(c));
    reference.push_back(std::make_unique<RewardService>(*mechanism));
  }
  Placement placement;
  placement.step();

  // 1. Inputs built in-process: the restart image and its WAL tail.
  double snapshot_s = 0.0;
  std::uint64_t base_seq = 0;
  std::optional<RecoveryLedger> recovery;
  if (w.tail_events > 0) {
    for (std::uint32_t c = 0; c < w.campaigns; ++c) {
      for (std::size_t i = 0; i < w.base_per_campaign; ++i) {
        reference[c]->apply(to_event(streams[c].join(w.base)));
      }
      base_seq += w.base_per_campaign;
    }
    snapshot_s = write_snapshot(paths.data_dir(), reference, *mechanism,
                                base_seq);
    storage::WalWriter writer(paths.data_dir(), base_seq + 1,
                              storage::FsyncPolicy::kNever, 0.0, 64u << 20);
    for (std::size_t i = 0; i < w.tail_events; ++i) {
      const auto c = static_cast<std::uint32_t>(i % w.tail_campaigns);
      const Event event = to_event(streams[c].write(w.tail));
      reference[c]->apply(event);
      writer.append(c, event);
    }
    writer.sync();
  }
  // The set-up writes of every start, drawn before the traffic that
  // follows them.
  std::vector<std::vector<net::BatchEvent>> setup_writes(
      w.setup_writes ? w.setup_spawns : 0);
  for (std::vector<net::BatchEvent>& writes : setup_writes) {
    for (std::uint32_t c = 0; c < w.campaigns; ++c) {
      writes.push_back(streams[c].contribute(w.timed));
    }
  }
  if (w.tail_events > 0 && options.trace) {
    std::vector<std::vector<NodeId>> queries;
    for (const Stream& stream : streams) {
      queries.push_back(upcoming_queries(stream, w.timed, 20000));
    }
    recovery = recovery_pass(paths.data_dir(), reference, *mechanism,
                             queries, shared);
  }

  // 2. Set-up, several times, each start on a fresh CPU; the extra
  // starts are SIGKILLed, which leaves the data directory as a crash
  // would, with their acknowledged writes in the WAL.
  std::vector<double> setups;
  Deployment d;
  for (int k = 0; k < w.setup_spawns; ++k) {
    placement.step();
    double setup = 0.0;
    const std::vector<net::BatchEvent> no_writes;
    Deployment attempt =
        launch(w, paths, w.setup_writes ? setup_writes[k] : no_writes, &setup);
    setups.push_back(setup);
    for (std::uint32_t c = 0; w.setup_writes && c < w.campaigns; ++c) {
      LoggedFrame frame;
      frame.kind = FrameKind::kContribute;
      frame.phase = Phase::kWarm;
      frame.first_event = static_cast<std::uint32_t>(logs[c].events.size());
      frame.events = 1;
      logs[c].events.push_back(setup_writes[k][c]);
      logs[c].frames.push_back(frame);
    }
    if (k + 1 < w.setup_spawns) {
      attempt.served->kill_now();
    } else {
      d = std::move(attempt);
    }
  }

  // 3. Pre-population over the wire.
  std::vector<net::Client> clients;
  for (std::uint32_t c = 0; c < w.campaigns; ++c) {
    clients.push_back(net::Client::connect_with_retry(kHost, d.port));
  }
  if (w.tail_events == 0) {
    std::vector<std::thread> threads;
    for (std::uint32_t c = 0; c < w.campaigns; ++c) {
      threads.emplace_back([&, c] {
        try {
          drive_batched(clients[c], c, streams[c], w.base, logs[c], nullptr,
                        w.base_per_campaign, 1024, 4, shared);
        } catch (const std::exception& error) {
          shared.fail(std::string("pre-population: ") + error.what());
        }
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
    base_seq = w.base_per_campaign * w.campaigns;
  }
  std::vector<std::size_t> base_participants;
  for (const Stream& stream : streams) {
    base_participants.push_back(stream.participants());
  }

  // 4. Warm-up: one untimed payout pass faults in every page of every
  // campaign (mapped images included), then the warm phase of the mix.
  {
    net::Client warm_payout = net::Client::connect_with_retry(kHost, d.port);
    for (std::uint32_t c = 0; c < w.campaigns; ++c) {
      warm_payout.audit(c);
      warm_payout.rewards(c);
      // The next id the server assigns is predicted here too; for a
      // timed mix without joins this is the run's id prediction.
      std::uint64_t predicted = streams[c].participants();
      if (w.timed.p_join == 0.0 && shared.take_id_fault()) {
        ++predicted;
      }
      const std::uint64_t held = warm_payout.stats(c).participants;
      if (held != predicted) {
        shared.error("campaign " + std::to_string(c) + ": server holds " +
                     std::to_string(held) + " participants, predicted " +
                     std::to_string(predicted));
      }
    }
  }

  // Timed phase.
  // The control connection is closed while the load runs, so the timed
  // phase uses one connection per load thread and no more.
  const net::ServerStatsBody stats_before =
      net::Client::connect_with_retry(kHost, d.port).server_stats();
  Schedule schedule;
  const double warm = std::max(0.5, 0.15 * options.seconds);
  schedule.warm_end = now_s() + warm;
  schedule.end = schedule.warm_end + options.seconds;
  schedule.trace = options.trace;
  std::vector<LoggedFrame> probe_frames;
  std::vector<std::thread> threads;
  if (w.batch == 1) {
    threads.emplace_back([&] {
      try {
        drive_single(clients[0], streams, w.timed, logs, schedule, shared);
      } catch (const std::exception& error) {
        shared.fail(std::string("load connection: ") + error.what());
      }
    });
  }
  for (std::uint32_t c = 0; w.batch > 1 && c < w.campaigns; ++c) {
    threads.emplace_back([&, c] {
      try {
        drive_batched(clients[c], c, streams[c], w.timed, logs[c], &schedule,
                      0, w.batch, w.pipeline, shared);
      } catch (const std::exception& error) {
        shared.fail("campaign " + std::to_string(c) + ": " + error.what());
      }
    });
  }
  std::optional<net::Client> probe;
  if (w.read_probe) {
    probe.emplace(net::Client::connect_with_retry(kHost, d.port));
    threads.emplace_back([&] {
      try {
        drive_probe(*probe, base_participants, root.fork(1000), probe_frames,
                    schedule, 0.001, shared);
      } catch (const std::exception& error) {
        shared.fail(std::string("read probe: ") + error.what());
      }
    });
  }
  // The timed phase is measured in windows of half a second and the
  // figures are the best quartile over them. Within a window the load
  // and the daemon change CPU every tenth of a second (Placement). The
  // daemon's CPU is sampled at every window boundary.
  constexpr std::size_t kStepsPerWindow = 5;
  const double window = schedule.end - schedule.warm_end;
  const std::size_t windows = std::max<std::size_t>(
      4, static_cast<std::size_t>(std::lround(window / 0.5)));
  const std::size_t steps = windows * kStepsPerWindow;
  std::vector<double> boundary_cpu;
  ProcSample proc_before, proc_after;
  double load_cpu_before = 0.0, probe_before = 0.0;
  for (std::size_t i = 0; i <= steps; ++i) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(
                schedule.warm_end + window * static_cast<double>(i) /
                                        static_cast<double>(steps)))));
    if (i % kStepsPerWindow == 0) {
      const ProcSample all = sample_proc(d.pid());
      boundary_cpu.push_back(all.cpu_s);
      if (i == 0) {
        proc_before = all;
        load_cpu_before = process_cpu_s();
        probe_before = placement.probe_s();
      } else if (i == steps) {
        proc_after = all;
      }
    }
    if (i < steps) {
      placement.step(d.pid());
    }
  }
  const double load_cpu =
      process_cpu_s() - load_cpu_before - (placement.probe_s() - probe_before);
  const double daemon_cpu = proc_after.cpu_s - proc_before.cpu_s;
  for (std::thread& thread : threads) {
    thread.join();
  }
  net::Client control = net::Client::connect_with_retry(kHost, d.port);
  const net::ServerStatsBody stats_after = control.server_stats();

  // Timed-phase accounting, per window.
  const auto window_of = [&](double t) {
    return std::min(windows - 1,
                    static_cast<std::size_t>(static_cast<double>(windows) *
                                             (t - schedule.warm_end) / window));
  };
  std::vector<std::vector<double>> write_lat(windows), read_lat(windows);
  std::vector<double> window_frames(windows, 0.0), window_events(windows, 0.0);
  double frames_done = 0.0, events_done = 0.0;
  std::size_t write_samples = 0, read_samples = 0;
  double thirds[3] = {0.0, 0.0, 0.0};
  double segment_frames[2] = {0.0, 0.0};
  const auto account = [&](const LoggedFrame& frame) {
    if (frame.phase != Phase::kTimed) {
      return;
    }
    const bool read = frame.kind == FrameKind::kQuery;
    (read ? read_lat : write_lat)[window_of(frame.sent)].push_back(
        frame.done - frame.sent);
    ++(read ? read_samples : write_samples);
    if (frame.done <= schedule.end) {
      frames_done += 1.0;
      events_done += frame.events;
      window_frames[window_of(frame.done)] += 1.0;
      window_events[window_of(frame.done)] += frame.events;
      thirds[std::min(2, static_cast<int>(3.0 * (frame.done - schedule.warm_end) /
                                          window))] += 1.0;
    }
    segment_frames[schedule.traced_at(frame.sent) ? 1 : 0] += 1.0;
  };
  for (const CampaignLog& log : logs) {
    for (const LoggedFrame& frame : log.frames) {
      account(frame);
    }
  }
  for (const LoggedFrame& frame : probe_frames) {
    account(frame);
  }

  // 5. Payout: audit + full rewards fetch of every campaign, repeated,
  // each repetition on a fresh CPU.
  std::vector<std::vector<double>> served(w.campaigns);
  std::vector<double> payouts;
  const double payout_start = now_s();
  while (payouts.size() < 2 * placement.cpu_count() ||
         (payouts.size() < 24 && now_s() - payout_start < 3.0)) {
    placement.step(d.pid());
    const double start = now_s();
    for (std::uint32_t c = 0; c < w.campaigns; ++c) {
      const double divergence = control.audit(c);
      std::vector<double> rewards = control.rewards(c);
      if (!(divergence < 1e-9)) {
        shared.error("campaign " + std::to_string(c) +
                     ": audit divergence " + std::to_string(divergence));
      }
      if (payouts.empty()) {
        served[c] = std::move(rewards);
      } else if (!same_bits(rewards, served[c])) {
        shared.error("campaign " + std::to_string(c) +
                     ": repeated rewards fetch changed");
      }
    }
    payouts.push_back(now_s() - start);
  }

  // Traced probes against the live, now idle deployment.
  double rtt_floor_us = 0.0;
  std::optional<RouterLedger> router;
  if (options.trace) {
    std::vector<double> rtts;
    for (int i = 0; i < 2000; ++i) {
      const double start = now_s();
      control.server_stats();
      rtts.push_back(now_s() - start);
    }
    rtt_floor_us = p50_us(rtts);
    router = router_probe(w, d, paths, base_participants[0], shared);
  }

  // 6. Stop the daemon, keeping its exit report.
  const double server_rss_mb = sample_proc(d.pid()).hwm_mb;
  clients.clear();
  probe.reset();
  const std::string exit_report = d.served->stop(60.0);

  // 7. Replay and check.
  EngineLedger engine;
  if (w.tail_events == 0) {
    for (std::uint32_t c = 0; c < w.campaigns; ++c) {
      replay(*reference[c], c, logs[c], true, mu, nullptr, shared);
    }
    if (options.trace) {
      snapshot_s = write_snapshot(paths.work_dir + "/ledger", reference,
                                  *mechanism, base_seq);
    }
  }
  for (std::uint32_t c = 0; c < w.campaigns; ++c) {
    replay(*reference[c], c, logs[c], false, mu,
           options.trace ? &engine : nullptr, shared);
  }
  std::vector<double> rewards_ms;
  double audit_s = 0.0;
  for (std::uint32_t c = 0; c < w.campaigns; ++c) {
    double start = now_s();
    const RewardVector& expected = reference[c]->rewards();
    rewards_ms.push_back((now_s() - start) * 1e3);
    std::vector<double> got = served[c];
    if (options.fault == "reward" && c == 0 && got.size() > 1) {
      got[1] = std::bit_cast<double>(std::bit_cast<std::uint64_t>(got[1]) ^ 1);
    }
    if (!same_bits(got, expected)) {
      shared.error("campaign " + std::to_string(c) +
                   ": served reward vector differs from the replay");
    }
    if (options.trace) {
      start = now_s();
      reference[c]->audit();
      audit_s += now_s() - start;
    }
  }

  // End-to-end metrics.
  double frames_attempted = 0.0;
  for (const CampaignLog& log : logs) {
    frames_attempted += static_cast<double>(log.frames.size());
  }
  frames_attempted += static_cast<double>(probe_frames.size());
  std::vector<double> window_cpu_us;
  for (std::size_t k = 0; k < windows; ++k) {
    if (window_frames[k] > 0) {
      window_cpu_us.push_back((boundary_cpu[k + 1] - boundary_cpu[k]) * 1e6 /
                              window_frames[k]);
    }
  }
  const double cpu_us_per_op = best_quartile(window_cpu_us, false);
  if (write_samples == 0 || read_samples == 0 || frames_done == 0.0) {
    shared.error("the timed phase completed no reads or no writes");
  }
  if (!options.trace && shared.errors.empty()) {
    const double window_s = window / static_cast<double>(windows);
    const WindowLatency writes = window_latency(write_lat);
    const WindowLatency reads = window_latency(read_lat);
    metrics.add("setup_s", percentile(setups, 50));
    metrics.add("ops_per_s", best_quartile(window_frames, true) / window_s);
    metrics.add("events_per_s", best_quartile(window_events, true) / window_s);
    metrics.add("write_p50_ms", writes.p50_ms);
    metrics.add("write_p99_ms", writes.tail_ms);
    metrics.add("read_p50_ms", reads.p50_ms);
    metrics.add("read_p99_ms", reads.tail_ms);
    metrics.add("payout_s", *std::min_element(payouts.begin(), payouts.end()));
    metrics.add("cpu_us_per_op", cpu_us_per_op);
    metrics.add("server_rss_mb", server_rss_mb);
    report.add("write_tail_percentile", writes.tail_percentile);
    report.add("read_tail_percentile", reads.tail_percentile);
  }
  // Frames per window, upper over lower quartile: how far apart the
  // host's fast and slow periods were during the run.
  report.add("window_rate_q75_over_q25",
             percentile(window_frames, 75) /
                 std::max(percentile(window_frames, 25), 1.0));


  // Per-layer ledger.
  if (options.trace && shared.errors.empty()) {
    std::uint64_t sink = 0;
    const CodecLedger codec = codec_pass(logs, w.durable, &sink);
    report.add("codec_sink", static_cast<double>(sink % 1000));
    const WalLedger wal = wal_pass(
        paths.work_dir + (w.tail_events > 0 ? "/wal" : "/ledger"),
        base_seq + 1, logs);
    if (w.tail_events == 0) {
      recovery = recovery_pass(paths.work_dir + "/ledger", reference,
                               *mechanism, {}, shared);
    }
    const double frames_replayed = static_cast<double>(engine.frames);
    const double reads_not_replayed =
        std::max(frames_done - frames_replayed, 0.0);
    double reward_probe_ns =
        engine.queries > 0
            ? engine.query_s * 1e9 / static_cast<double>(engine.queries)
            : 0.0;
    if (w.tail_events > 0) {
      // Restart: point reads as the restarted daemon serves them.
      reward_probe_ns = recovery->query_ns;
    } else if (engine.queries == 0) {
      // Write-only stream: time point queries on the final state.
      Rng rng(7);
      const double start = now_s();
      double sum = 0.0;
      for (int i = 0; i < 100000; ++i) {
        const std::uint32_t c = static_cast<std::uint32_t>(i) % w.campaigns;
        sum += reference[c]->reward(static_cast<NodeId>(
            1 + rng.index(reference[c]->tree().participant_count())));
      }
      reward_probe_ns = (now_s() - start) * 1e9 / 100000.0;
      report.add("query_sink", sum > 0 ? 1.0 : 0.0);
    }
    const double events = static_cast<double>(engine.events);
    const double served_frames =
        static_cast<double>(stats_after.requests_served -
                            stats_before.requests_served);
    const double batch_flushes = static_cast<double>(
        stats_after.batch_flushes - stats_before.batch_flushes);
    const double sys_ns = syscall_ns();
    const double frames = std::max(frames_done, 1.0);

    metrics.add("net.decode_ns_per_frame", codec.decode_ns_per_frame);
    metrics.add("net.encode_ns_per_frame", codec.encode_ns_per_frame);
    metrics.add("net.rtt_floor_us", rtt_floor_us);
    metrics.add("proc.server_ctx_switches_per_op",
                (proc_after.ctx_switches - proc_before.ctx_switches) / frames);
    metrics.add("net.wire_bytes_per_event", codec.wire_bytes_per_event);
    metrics.add("net.events_per_flush",
                batch_flushes > 0
                    ? static_cast<double>(stats_after.events_batched -
                                          stats_before.events_batched) /
                          batch_flushes
                    : 0.0);
    metrics.add("net.forwarded_share",
                served_frames > 0
                    ? static_cast<double>(stats_after.requests_forwarded -
                                          stats_before.requests_forwarded) /
                          served_frames
                    : 0.0);
    metrics.add("engine.apply_ns_per_event",
                events > 0 ? engine.apply_s * 1e9 / events : 0.0);
    metrics.add("engine.flush_ns_per_event",
                events > 0 ? engine.flush_s * 1e9 / events : 0.0);
    metrics.add("engine.walk_len_per_event",
                events > 0 ? static_cast<double>(engine.walk) / events : 0.0);
    metrics.add("engine.query_ns", reward_probe_ns);
    metrics.add("engine.rewards_vector_ms", percentile(rewards_ms, 50));
    metrics.add("engine.audit_s", audit_s);
    metrics.add("tree.privatize_s", recovery->privatize_s);
    metrics.add("storage.append_ns_per_event", wal.append_ns_per_event);
    metrics.add("storage.wal_bytes_per_event", wal.wal_bytes_per_event);
    metrics.add("storage.commit_p50_us", wal.commit_p50_us);
    metrics.add("storage.commit_p99_us", wal.commit_p99_us);
    metrics.add("storage.fsyncs_per_commit", wal.fsyncs_per_commit);
    metrics.add("storage.snapshot_s", snapshot_s);
    metrics.add("storage.recover_s", recovery->recover_s);
    metrics.add("storage.snapshot_load_s", recovery->snapshot_load_s);
    metrics.add("storage.tail_replay_events_per_s",
                recovery->tail_replay_events_per_s);
    metrics.add("storage.image_bytes_per_node",
                recovery->image_bytes_per_node);
    metrics.add("router.hop_p50_us", router->hop_p50_us);
    metrics.add("router.cpu_us_per_frame", router->cpu_us_per_frame);

    // Ledger: the isolated layer costs of one frame against the
    // daemon's CPU per frame.
    const double codec_us =
        (codec.decode_ns_per_frame + codec.encode_ns_per_frame) * 1e-3;
    const double engine_us =
        (engine.apply_s + engine.flush_s) * 1e6 / frames +
        (static_cast<double>(engine.queries) + reads_not_replayed) *
            reward_probe_ns * 1e-3 / frames;
    double storage_us = 0.0;
    if (w.durable) {
      storage_us = (wal.append_ns_per_event * events_done * 1e-3 +
                    wal.mean_commit_us * frames_replayed) /
                   frames;
      if (w.snapshot_every > 0) {
        storage_us += snapshot_s * 1e6 *
                      (events_done / static_cast<double>(w.snapshot_every)) /
                      frames;
      }
    }
    // Socket calls are not counted in /proc/<pid>/io: take two per frame
    // (receive and send) plus one wait per context switch, and add the
    // counted file calls (WAL writes).
    const double syscalls_per_frame =
        2.0 + ((proc_after.ctx_switches - proc_before.ctx_switches) +
               (proc_after.syscalls - proc_before.syscalls)) /
                  frames;
    const double syscall_us = syscalls_per_frame * sys_ns * 1e-3;
    metrics.add("attributed_share",
                (codec_us + engine_us + storage_us + syscall_us) /
                    cpu_us_per_op);
    metrics.add("trace.overhead_share",
                segment_frames[1] > 0 ? segment_frames[0] / segment_frames[1]
                                      : 0.0);
    report.add("ledger_us_per_frame",
               "{\"codec\":" + std::to_string(codec_us) +
                   ",\"engine\":" + std::to_string(engine_us) +
                   ",\"storage\":" + std::to_string(storage_us) +
                   ",\"syscalls\":" + std::to_string(syscall_us) +
                   ",\"server_cpu\":" + std::to_string(cpu_us_per_op) + "}");
    report.add("syscall_ns", sys_ns);

    if (!options.spans_path.empty()) {
      std::ofstream spans(options.spans_path);
      spans << "campaign,kind,events,sent_us,send_done_us,done_us\n";
      std::size_t rows = 0;
      for (std::size_t c = 0; c < logs.size(); ++c) {
        for (const LoggedFrame& frame : logs[c].frames) {
          if (!frame.traced || ++rows > 200000) {
            continue;
          }
          const auto us = [&](double t) {
            return std::llround((t - schedule.warm_end) * 1e6);
          };
          spans << c << ',' << static_cast<int>(frame.kind) << ','
                << frame.events << ',' << us(frame.sent) << ','
                << us(frame.send_done) << ',' << us(frame.done) << '\n';
        }
      }
    }
  }

  double max_growth = 0.0;
  for (std::uint32_t c = 0; c < w.campaigns; ++c) {
    max_growth = std::max(
        max_growth,
        static_cast<double>(streams[c].participants() - base_participants[c]) /
            static_cast<double>(base_participants[c]));
  }
  report.add("frames_timed", frames_done);
  report.add("windows", static_cast<double>(windows));
  report.add("write_samples", static_cast<double>(write_samples));
  report.add("read_samples", static_cast<double>(read_samples));
  report.add("setup_samples", static_cast<double>(setups.size()));
  report.add("payout_samples", static_cast<double>(payouts.size()));
  report.add("ops_first_third", thirds[0]);
  report.add("ops_last_third", thirds[2]);
  report.add("load_threads", static_cast<double>(threads.size()));
  report.add("load_cpu_share", load_cpu / (load_cpu + daemon_cpu));
  report.add("daemon_cpu_cores", daemon_cpu / window);
  report.add("tree_growth_share", max_growth);
  report.add("snapshots_written",
             report_number(exit_report, "snapshots_written"));
  report.add_string("mechanism", mechanism->display_name());
  report.add_string("fsync", w.durable ? "interval" : "none (in-memory)");
  std::string errors = "[";
  for (std::size_t i = 0; i < shared.errors.size() && i < 5; ++i) {
    errors += (i == 0 ? "" : ",") + JsonObject::quoted(shared.errors[i]);
  }
  report.add("errors", errors + "]");

  const bool correct = shared.errors.empty() && shared.failed == 0;
  JsonObject out;
  out.add("correct", std::string(correct ? "true" : "false"));
  out.add("attempted", std::max(frames_attempted, 1.0));
  out.add("failed", static_cast<double>(shared.failed.load()));
  out.add("metrics", metrics.str());
  out.add("report", report.str());
  std::cout << out.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args;
  args.add_flag("--workload", "interactive|durable_ingest|restart");
  args.add_flag("--seed", "input seed");
  args.add_flag("--seconds", "length of the timed phase");
  args.add_flag("--trace", "1: per-layer ledger instead of end-to-end");
  args.add_flag("--bin-dir", "directory holding itree-served/itree-router");
  args.add_flag("--work-dir", "working directory for data directories");
  args.add_flag("--spans", "traced run: write per-frame spans here (CSV)");
  args.add_flag("--inject-fault", "corrupt one checked output: reward|id");
  if (!args.parse(argc, argv)) {
    std::cerr << args.error() << '\n';
    return 2;
  }
  try {
    Options options;
    options.workload = args.get_or("--workload", "");
    options.seed = static_cast<std::uint64_t>(args.get_int_or("--seed", 1));
    options.seconds = args.get_double_or("--seconds", 10.0);
    options.trace = args.get_int_or("--trace", 0) != 0;
    options.fault = args.get_or("--inject-fault", "");
    options.spans_path = args.get_or("--spans", "");
    if (!options.fault.empty() && options.fault != "reward" &&
        options.fault != "id") {
      throw std::invalid_argument("--inject-fault must be reward|id");
    }
    Paths paths;
    paths.bin_dir = args.get_or("--bin-dir", "");
    paths.work_dir = args.get_or("--work-dir", "");
    std::filesystem::create_directories(paths.work_dir);
    return run(options, paths);
  } catch (const std::exception& error) {
    std::cerr << "perfbench-load: " << error.what() << '\n';
    return 2;
  }
}
