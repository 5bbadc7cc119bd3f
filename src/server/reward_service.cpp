#include "server/reward_service.h"

#include <algorithm>
#include <iostream>
#include <span>
#include <stdexcept>

#include "core/tdrm.h"
#include "util/check.h"

namespace itree {

RewardService::RewardService(const Mechanism& mechanism,
                             RewardServiceOptions options)
    : mechanism_(&mechanism), options_(options) {
  // Mechanisms declare their own aggregate needs; the service just
  // instantiates the matching engine. TDRM's chain state is the one
  // bespoke path left (its aggregates live on the virtual RCT, not the
  // referral tree).
  support_ = mechanism_->aggregate_support();
  if (support_.supported) {
    mode_ = Mode::kAggregate;
    aggregate_state_.emplace(IncrementalSubtreeState::Config{
        support_.decay, support_.binary_depth});
  } else if (const auto* tdrm = dynamic_cast<const Tdrm*>(mechanism_)) {
    mode_ = Mode::kTdrm;
    rct_state_.emplace(tdrm->params(), tdrm->phi());
  }
}

const Tree& RewardService::tree() const {
  switch (mode_) {
    case Mode::kAggregate:
      return aggregate_state_->tree();
    case Mode::kTdrm:
      return rct_state_->tree();
    case Mode::kBatch:
      break;
  }
  return batch_tree_;
}

NodeId RewardService::apply(const JoinEvent& event) {
  require(event.initial_contribution >= 0.0,
          "RewardService: initial contribution must be >= 0");
  // Counter and cache state change only after the event validated and
  // applied: a rejected event must leave the service untouched.
  NodeId id = kInvalidNode;
  switch (mode_) {
    case Mode::kAggregate:
      id = aggregate_state_->add_leaf(event.referrer,
                                      event.initial_contribution);
      break;
    case Mode::kTdrm:
      id = rct_state_->add_leaf(event.referrer, event.initial_contribution);
      break;
    case Mode::kBatch:
      id = batch_tree_.add_node(event.referrer,
                                event.initial_contribution);
      break;
  }
  ++events_applied_;
  dirty_ = true;
  return id;
}

void RewardService::apply(const ContributeEvent& event) {
  require(event.amount >= 0.0, "RewardService: amount must be >= 0");
  switch (mode_) {
    case Mode::kAggregate:
      aggregate_state_->add_contribution(event.participant, event.amount);
      break;
    case Mode::kTdrm:
      rct_state_->add_contribution(event.participant, event.amount);
      break;
    case Mode::kBatch:
      require(batch_tree_.contains(event.participant) &&
                  event.participant != kRoot,
              "RewardService: unknown participant");
      batch_tree_.set_contribution(
          event.participant,
          batch_tree_.contribution(event.participant) + event.amount);
      break;
  }
  ++events_applied_;
  dirty_ = true;
}

std::optional<NodeId> RewardService::apply(const Event& event) {
  if (const auto* join = std::get_if<JoinEvent>(&event)) {
    return apply(*join);
  }
  apply(std::get<ContributeEvent>(event));
  return std::nullopt;
}

namespace {

/// The node an event reads first: a join's referrer, a contribution's
/// participant. Unvalidated; the prefetch hints clamp it.
NodeId event_node(const Event& event) {
  if (const auto* join = std::get_if<JoinEvent>(&event)) {
    return join->referrer;
  }
  return std::get<ContributeEvent>(event).participant;
}

}  // namespace

void RewardService::replay(std::span<const Event> events) {
  if (mode_ != Mode::kAggregate) {
    for (const Event& event : events) {
      apply(event);
    }
    return;
  }
  // A join's tree append and the first ancestor steps miss the cache on
  // a large tree; issuing those loads a few events early overlaps them
  // with the current event's walk. Hints only: apply() is unchanged.
  constexpr std::size_t kRowsAhead = 16;
  constexpr std::size_t kAncestorsAhead = 8;
  const std::size_t count = events.size();
  for (std::size_t i = 0; i < count; ++i) {
    if (i + kRowsAhead < count) {
      aggregate_state_->prefetch_rows(event_node(events[i + kRowsAhead]));
    }
    if (i + kAncestorsAhead < count) {
      aggregate_state_->prefetch_ancestor_rows(
          event_node(events[i + kAncestorsAhead]));
    }
    apply(events[i]);
  }
}

void RewardService::note_batch_fallback() const {
  if (options_.require_incremental) {
    throw std::invalid_argument("RewardService: mechanism '" +
                                mechanism_->display_name() +
                                "' has no incremental serving path");
  }
  if (!warned_batch_fallback_) {
    warned_batch_fallback_ = true;
    std::cerr << "reward service: falling back to O(n) batch compute for "
              << mechanism_->display_name()
              << " (no incremental path); further fallbacks not logged\n";
  }
}

void RewardService::adopt_snapshot(Tree&& tree, std::size_t events_applied,
                                   std::vector<double> aggregates) {
  require(this->tree().node_count() == 1 && events_applied_ == 0,
          "RewardService::adopt_snapshot: service already has state");
  require(events_applied >= tree.participant_count(),
          "RewardService::adopt_snapshot: event counter below "
          "participant count");
  switch (mode_) {
    case Mode::kAggregate:
      require(!aggregates.empty(),
              "RewardService::adopt_snapshot: incremental service needs the "
              "aggregate blob");
      aggregate_state_->adopt(std::move(tree), std::move(aggregates));
      break;
    case Mode::kTdrm:
      require(!aggregates.empty(),
              "RewardService::adopt_snapshot: incremental service needs the "
              "aggregate blob");
      rct_state_->adopt(std::move(tree), std::move(aggregates));
      break;
    case Mode::kBatch:
      // Batch rewards are a pure function of the tree; a stray blob
      // from a differently-configured writer is irrelevant here.
      batch_tree_ = std::move(tree);
      break;
  }
  events_applied_ = events_applied;
  dirty_ = true;
}

std::vector<double> RewardService::export_aggregates() const {
  switch (mode_) {
    case Mode::kAggregate:
      return aggregate_state_->export_aggregates();
    case Mode::kTdrm:
      return rct_state_->export_aggregates();
    case Mode::kBatch:
      break;
  }
  return {};
}

AggregateKind RewardService::aggregate_kind() const {
  switch (mode_) {
    case Mode::kAggregate:
      return AggregateKind::kAggregateEngine;
    case Mode::kTdrm:
      return AggregateKind::kRctChain;
    case Mode::kBatch:
      break;
  }
  return AggregateKind::kNone;
}

double RewardService::reward(NodeId participant) const {
  require(participant != kRoot && tree().contains(participant),
          "RewardService::reward: unknown participant");
  switch (mode_) {
    case Mode::kAggregate: {
      NodeAggregates aggregates;
      aggregates.own = aggregate_state_->tree().contribution(participant);
      aggregates.subtree = aggregate_state_->subtree_aggregate(participant);
      if (support_.binary_depth) {
        aggregates.binary_depth = aggregate_state_->binary_depth(participant);
      }
      return mechanism_->reward_from_aggregates(aggregates);
    }
    case Mode::kTdrm:
      return rct_state_->reward(participant);
    case Mode::kBatch:
      break;
  }
  return rewards()[participant];
}

void RewardService::fill_rewards(NodeId first, std::span<double> out) const {
  require(first <= tree().node_count() &&
              out.size() <= tree().node_count() - first,
          "RewardService::fill_rewards: block past the last node");
  if (mode_ == Mode::kBatch) {
    const RewardVector& batch = rewards();
    std::copy_n(batch.begin() + first, out.size(), out.begin());
    return;
  }
  // The same arithmetic reward(u) does per node, without its per-call
  // checks. The batch mechanism is deliberately not touched (tests
  // instrument compute() to prove this stays true).
  if (mode_ == Mode::kAggregate) {
    const std::size_t count = out.size();
    const std::span<const std::uint32_t> binary_depth =
        support_.binary_depth
            ? aggregate_state_->binary_depths().subspan(first, count)
            : std::span<const std::uint32_t>{};
    mechanism_->rewards_from_aggregates(
        aggregate_state_->tree().contribution_array().subspan(first, count),
        aggregate_state_->subtree_aggregates().subspan(first, count),
        binary_depth, out);
  } else {
    for (std::size_t i = 0; i < out.size(); ++i) {
      const NodeId u = static_cast<NodeId>(first + i);
      out[i] = u == kRoot ? 0.0 : rct_state_->reward(u);
    }
  }
  if (first == kRoot && !out.empty()) {
    out[0] = 0.0;
  }
}

void RewardService::visit_rewards(const RewardBlockVisitor& visit) const {
  const std::size_t n = tree().node_count();
  if (mode_ == Mode::kBatch) {
    const RewardVector& batch = rewards();
    for (std::size_t first = 0; first < n; first += kStreamBlock) {
      visit(static_cast<NodeId>(first),
            std::span<const double>(batch).subspan(
                first, std::min(kStreamBlock, n - first)));
    }
    return;
  }
  double block[kStreamBlock];
  for (std::size_t first = 0; first < n; first += kStreamBlock) {
    const std::span<double> out(block, std::min(kStreamBlock, n - first));
    fill_rewards(static_cast<NodeId>(first), out);
    visit(static_cast<NodeId>(first), out);
  }
}

const RewardVector& RewardService::rewards() const {
  if (mode_ == Mode::kBatch && options_.require_incremental) {
    note_batch_fallback();  // throws
  }
  if (dirty_) {
    if (mode_ == Mode::kBatch) {
      note_batch_fallback();  // logs once
      cached_rewards_ = mechanism_->compute(tree());
    } else {
      cached_rewards_.resize(tree().node_count());
      fill_rewards(kRoot, cached_rewards_);
    }
    dirty_ = false;
  }
  return cached_rewards_;
}

double RewardService::total_reward() const {
  if (mode_ == Mode::kAggregate && support_.total_coefficient > 0.0) {
    // R(u) = coeff * S(u) summed over participants: O(1) from the
    // engine's running total.
    return support_.total_coefficient * aggregate_state_->total_aggregate();
  }
  if (mode_ == Mode::kTdrm) {
    return rct_state_->total_reward();
  }
  // itree::total_reward(rewards()) without the vector: the same
  // additions in the same ascending order.
  double total = 0.0;
  visit_rewards([&total](NodeId, std::span<const double> block) {
    for (const double r : block) {
      total += r;
    }
  });
  return total;
}

double RewardService::audit() const {
  if (mode_ == Mode::kBatch) {
    return 0.0;
  }
  // The served values, bit-identical to reward(u), are priced block by
  // block as the batch sweep reaches them; no served vector is built.
  ServedRewards served(tree().node_count(),
                       [this](NodeId first, std::span<double> out) {
                         fill_rewards(first, out);
                       });
  return mechanism_->max_divergence(tree(), served);
}

}  // namespace itree
