// Persistent event log: the human-readable import/export format.
//
// Durability lives in the binary storage engine (src/storage/); this
// text format is for export, import, and offline replay.
//
// Line format (one event per line, whitespace-separated):
//   [@<event-id>] J <referrer-id> <initial-contribution>
//   [@<event-id>] C <participant-id> <amount>
// The optional leading `@<event-id>` token names the event; save()
// writes one per line so exported logs can be audited, and load/parse
// reject duplicate ids. Blank lines are skipped; `#` starts a comment
// that runs to end of line (whole-line or inline). Anything after the
// three event fields other than a comment is an error — a corrupted
// line must not half-parse.
//
// Replay feeds the log through a fresh RewardService, reconstructing
// the exact deployment state (ids are assigned deterministically in
// event order).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "server/event.h"
#include "server/reward_service.h"

namespace itree {

class EventLog {
 public:
  EventLog() = default;

  void append(Event event) { events_.push_back(std::move(event)); }
  const std::vector<Event>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }

  /// One line per event, bare wire form without `@` ids (see format
  /// above).
  std::string serialize() const;

  /// Streams the serialized form to `out` (what serialize() buffers).
  void write(std::ostream& out) const;

  /// Parses a serialized log (with or without `@` ids / comments).
  /// Throws std::invalid_argument on malformed lines, trailing garbage,
  /// or duplicate event ids.
  static EventLog parse(const std::string& text);

  /// Streaming file forms; save() overwrites, writing a header comment
  /// and an `@<index>` id per line. Throw std::runtime_error on I/O
  /// failure, std::invalid_argument on malformed input.
  void save(const std::string& path) const;
  static EventLog load(const std::string& path);

  /// Feeds every event through a fresh service for `mechanism`.
  RewardService replay(const Mechanism& mechanism) const;

  /// State-equivalent compacted log for an existing tree: one join per
  /// participant in id order. Replaying it rebuilds `tree` exactly;
  /// the original event-by-event history is not preserved (that is the
  /// point of compaction).
  static EventLog from_tree(const Tree& tree);

 private:
  std::vector<Event> events_;
};

/// One campaign's serving state: a pass-through to RewardService that
/// the daemon, storage recovery and replica bootstrap hold per
/// campaign. It keeps no history of its own — the WAL is the durable
/// record, and `itree recover --export` writes the state-equivalent
/// compacted log (EventLog::from_tree) when a text form is wanted.
class RecordingService {
 public:
  explicit RecordingService(const Mechanism& mechanism)
      : service_(mechanism) {}

  NodeId join(NodeId referrer, double initial_contribution) {
    return service_.apply(JoinEvent{referrer, initial_contribution});
  }
  void contribute(NodeId participant, double amount) {
    service_.apply(ContributeEvent{participant, amount});
  }

  /// Applies any event (join or contribute); returns the assigned id
  /// for joins.
  std::optional<NodeId> apply(const Event& event) {
    return service_.apply(event);
  }

  /// Applies a run of events in order (see RewardService::replay).
  void replay(std::span<const Event> events) { service_.replay(events); }

  /// Restores a fresh service from a checkpoint (see
  /// RewardService::adopt_snapshot): the tree and the accumulator blob
  /// are moved straight into the service. An empty blob rebuilds the
  /// accumulators from the tree.
  void adopt_snapshot(Tree&& tree, std::uint64_t events_applied,
                      std::vector<double> aggregates) {
    service_.adopt_snapshot(std::move(tree), events_applied,
                            std::move(aggregates));
  }

  const RewardService& service() const { return service_; }

 private:
  RewardService service_;
};

}  // namespace itree
