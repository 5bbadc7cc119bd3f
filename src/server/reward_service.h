// Event-sourced reward service: the deployment-facing API.
//
// Wraps a mechanism behind an event stream. Every factory mechanism is
// served incrementally, in one of two modes:
//   * the generic ancestor-aggregate engine (core/incremental.h) for
//     every mechanism that declares Mechanism::aggregate_support() —
//     Geometric, L-Luxor, L-Pachira, the CDRM family, split-proof and
//     both preliminary TDRMs: O(depth) per event, and rewards priced
//     through the one hook Mechanism::rewards_from_aggregates();
//   * TDRM's dedicated virtual-RCT chain state.
// A mechanism with neither (a generic L-transform, say) is refused by
// the constructor, once, instead of being served by O(n) recomputes.
//
// Every apply() finishes its event's ancestor walk before it returns,
// so the engine state is complete between calls and no const query
// writes it (rewards() fills only its own cache).
//
// Payout: the served vector is streamed, not kept. fill_rewards() prices
// one block of ids through the pricing hook — one virtual call per
// block — and visit_rewards() walks the whole vector block by block, so
// a REWARDS frame, total_reward() and audit() read the aggregate
// columns directly and leave nothing behind. rewards() materializes the
// vector for in-process callers (same kernel, same bits).
//
// `audit()` recomputes from scratch and reports the largest divergence
// — the operation a real deployment runs before paying out. It is the
// mechanism's max_divergence(): one batch sweep over the tree, folded
// against the served values block by block as it goes.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "core/incremental.h"
#include "core/mechanism.h"
#include "server/event.h"

namespace itree {

/// Which incremental accumulator family a service persists in
/// snapshots. Stored as the aggregate-kind byte of the snapshot image
/// (storage/snapshot.h), so recovery can detect a blob written by a
/// differently-configured service instead of mis-importing it.
enum class AggregateKind : std::uint8_t {
  /// No accumulators: written only by earlier batch-mode services.
  /// Recovery rebuilds such a campaign from its tree.
  kNone = 0,
  kAggregateEngine = 1,  ///< IncrementalSubtreeState blob
  kRctChain = 2,         ///< IncrementalRctState blob (TDRM)
};

class RewardService {
 public:
  /// The mechanism must outlive the service. Throws
  /// std::invalid_argument naming it when the mechanism has neither
  /// aggregate support nor TDRM's chain state.
  explicit RewardService(const Mechanism& mechanism);

  /// Applies a join; returns the assigned participant id.
  NodeId apply(const JoinEvent& event);

  /// Applies a contribution. Throws std::invalid_argument for unknown
  /// participants or negative amounts.
  void apply(const ContributeEvent& event);

  /// Applies any event; returns the new participant id for joins.
  std::optional<NodeId> apply(const Event& event);

  /// Applies `events` in order through apply(const Event&) — the WAL
  /// tail replay of crash recovery. Bit for bit the same as applying
  /// them one by one. The aggregate engine prefetches ahead while it
  /// goes: the rows of the event 16 ahead and one ancestor level of
  /// the event 8 ahead, so the ancestor walks stop waiting on memory.
  /// Throws like apply(); events before the failing one stay applied.
  void replay(std::span<const Event> events);

  /// No-ops, kept only because perfbench/load.cpp still brackets its
  /// frames with them (as SnapshotFormat survives for the same reason).
  /// Each apply() already runs its event's walk.
  void begin_batch() {}
  void flush_batch() {}

  /// Restores a freshly constructed service from a checkpoint: moves
  /// the tree straight into the incremental state's arena and takes
  /// the FP accumulators from `aggregates`, the blob
  /// export_aggregates() produced on the snapshotting service (pass it
  /// by move and the aggregate engine keeps its storage) — so the
  /// restored state is bit-identical to the uninterrupted run's, at
  /// O(n) column-adoption cost. The blob's family must match
  /// aggregate_kind() (sizes are validated). An empty blob rebuilds the
  /// accumulators from the tree in O(n) — within FP accumulation error
  /// of the original run, not bit for bit; recovery allows that only
  /// for kind-0 images (storage.h). The service must not have applied
  /// any events yet. A tree adopted from a mapped snapshot
  /// (Tree::adopt_columns) moves in with its columns still
  /// *borrowing* the mapping — the service then serves reward queries
  /// straight from the page cache, and the first mutating event
  /// privatizes only the columns it touches.
  void adopt_snapshot(Tree&& tree, std::size_t events_applied,
                      std::vector<double> aggregates);

  /// Flattens this service's incremental FP accumulators into an opaque
  /// double blob for snapshot persistence.
  std::vector<double> export_aggregates() const;

  /// The accumulator family export_aggregates() produces — persisted as
  /// the snapshot image's kind byte.
  AggregateKind aggregate_kind() const;

  /// Current reward of one participant.
  double reward(NodeId participant) const;

  using RewardBlockVisitor =
      std::function<void(NodeId first, std::span<const double> block)>;

  /// Writes the served rewards of ids [first, first + out.size()) to
  /// `out` (the root's entry is 0), bit for bit what reward(u) returns.
  /// The aggregate engine prices the block in one
  /// Mechanism::rewards_from_aggregates() call, TDRM per node from its
  /// chain state; nothing is cached and the batch mechanism is NOT
  /// invoked. Throws std::invalid_argument when the block runs past the
  /// last node.
  void fill_rewards(NodeId first, std::span<double> out) const;

  /// Calls `visit(first, block)` for consecutive blocks of at most
  /// kStreamBlock served rewards, in ascending id order, covering every
  /// node id. One stack block at a time is filled with fill_rewards(),
  /// so no whole vector exists. `block` is valid only during the call.
  void visit_rewards(const RewardBlockVisitor& visit) const;

  /// Current rewards of everyone (root entry is 0), materialized for
  /// in-process callers with fill_rewards() over every id. The
  /// reference stays valid until the next applied event. The serving
  /// paths (REWARDS, AUDIT, STATS) never call it.
  const RewardVector& rewards() const;

  /// Entries rewards() currently holds allocated (0 until it is first
  /// called).
  std::size_t materialized_rewards() const {
    return cached_rewards_.capacity();
  }

  /// Total reward paid if the system settled now. Without an O(1)
  /// total, the sum of visit_rewards() in ascending id order: the same
  /// bits as itree::total_reward(rewards()).
  double total_reward() const;

  /// Largest |incremental - batch| divergence across participants:
  /// Mechanism::max_divergence() of the tree against the served values,
  /// which fill_rewards() prices block by block as the sweep reaches
  /// them. A production deployment runs this before each payout cycle.
  double audit() const;

  const Tree& tree() const;
  const Mechanism& mechanism() const { return *mechanism_; }
  std::size_t events_applied() const { return events_applied_; }

 private:
  /// What the pricing hook reads: the engine's columns and total.
  AggregateView aggregate_view() const;

  const Mechanism* mechanism_;
  AggregateSupport support_;

  // Exactly one of these backs the service: the aggregate engine when
  // support_.supported, TDRM's chain state otherwise.
  std::optional<IncrementalSubtreeState> aggregate_state_;
  std::optional<IncrementalRctState> rct_state_;

  mutable RewardVector cached_rewards_;  ///< rewards(); see there
  mutable bool dirty_ = true;
  std::size_t events_applied_ = 0;
};

}  // namespace itree
