#include "server/reward_service.h"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "core/tdrm.h"
#include "util/check.h"

namespace itree {

RewardService::RewardService(const Mechanism& mechanism)
    : mechanism_(&mechanism), support_(mechanism.aggregate_support()) {
  // Mechanisms declare their own aggregate needs; the service just
  // instantiates the matching engine. TDRM's chain state is the one
  // bespoke path left (its aggregates live on the virtual RCT, not the
  // referral tree).
  if (support_.supported) {
    aggregate_state_.emplace(IncrementalSubtreeState::Config{
        support_.decay, support_.binary_depth, support_.own_weighted_total});
  } else if (const auto* tdrm = dynamic_cast<const Tdrm*>(mechanism_)) {
    rct_state_.emplace(tdrm->params(), tdrm->phi());
  } else {
    throw std::invalid_argument("RewardService: mechanism '" +
                                mechanism_->display_name() +
                                "' has no incremental serving path");
  }
}

const Tree& RewardService::tree() const {
  return aggregate_state_ ? aggregate_state_->tree() : rct_state_->tree();
}

NodeId RewardService::apply(const JoinEvent& event) {
  require(event.initial_contribution >= 0.0,
          "RewardService: initial contribution must be >= 0");
  // Counter and cache state change only after the event validated and
  // applied: a rejected event must leave the service untouched.
  const NodeId id =
      aggregate_state_
          ? aggregate_state_->add_leaf(event.referrer,
                                       event.initial_contribution)
          : rct_state_->add_leaf(event.referrer, event.initial_contribution);
  ++events_applied_;
  dirty_ = true;
  return id;
}

void RewardService::apply(const ContributeEvent& event) {
  require(event.amount >= 0.0, "RewardService: amount must be >= 0");
  if (aggregate_state_) {
    aggregate_state_->add_contribution(event.participant, event.amount);
  } else {
    rct_state_->add_contribution(event.participant, event.amount);
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
  if (!aggregate_state_) {
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

void RewardService::adopt_snapshot(Tree&& tree, std::size_t events_applied,
                                   std::vector<double> aggregates) {
  require(this->tree().node_count() == 1 && events_applied_ == 0,
          "RewardService::adopt_snapshot: service already has state");
  require(events_applied >= tree.participant_count(),
          "RewardService::adopt_snapshot: event counter below "
          "participant count");
  if (aggregate_state_) {
    aggregate_state_->adopt(std::move(tree), std::move(aggregates));
  } else {
    rct_state_->adopt(std::move(tree), std::move(aggregates));
  }
  events_applied_ = events_applied;
  dirty_ = true;
}

std::vector<double> RewardService::export_aggregates() const {
  return aggregate_state_ ? aggregate_state_->export_aggregates()
                          : rct_state_->export_aggregates();
}

AggregateKind RewardService::aggregate_kind() const {
  return aggregate_state_ ? AggregateKind::kAggregateEngine
                          : AggregateKind::kRctChain;
}

AggregateView RewardService::aggregate_view() const {
  return AggregateView{
      .tree = aggregate_state_->tree(),
      .subtree = aggregate_state_->subtree_aggregates(),
      .binary_depth = support_.binary_depth
                          ? aggregate_state_->binary_depths()
                          : std::span<const std::uint32_t>{},
      .total = aggregate_state_->total_aggregate()};
}

double RewardService::reward(NodeId participant) const {
  require(participant != kRoot && tree().contains(participant),
          "RewardService::reward: unknown participant");
  if (!aggregate_state_) {
    return rct_state_->reward(participant);
  }
  double out = 0.0;
  mechanism_->rewards_from_aggregates(aggregate_view(), participant,
                                      std::span<double>(&out, 1));
  return out;
}

void RewardService::fill_rewards(NodeId first, std::span<double> out) const {
  require(first <= tree().node_count() &&
              out.size() <= tree().node_count() - first,
          "RewardService::fill_rewards: block past the last node");
  if (out.empty()) {
    return;
  }
  // The hook is never asked for the root: its entry is 0 here.
  if (first == kRoot) {
    out[0] = 0.0;
    out = out.subspan(1);
    first = 1;
  }
  // The same arithmetic reward(u) does, without its per-call checks.
  // The batch mechanism is deliberately not touched (tests instrument
  // compute() to prove this stays true).
  if (aggregate_state_) {
    mechanism_->rewards_from_aggregates(aggregate_view(), first, out);
    return;
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = rct_state_->reward(static_cast<NodeId>(first + i));
  }
}

void RewardService::visit_rewards(const RewardBlockVisitor& visit) const {
  const std::size_t n = tree().node_count();
  double block[kStreamBlock];
  for (std::size_t first = 0; first < n; first += kStreamBlock) {
    const std::span<double> out(block, std::min(kStreamBlock, n - first));
    fill_rewards(static_cast<NodeId>(first), out);
    visit(static_cast<NodeId>(first), out);
  }
}

const RewardVector& RewardService::rewards() const {
  if (dirty_) {
    cached_rewards_.resize(tree().node_count());
    fill_rewards(kRoot, cached_rewards_);
    dirty_ = false;
  }
  return cached_rewards_;
}

double RewardService::total_reward() const {
  if (aggregate_state_ && support_.total_coefficient > 0.0) {
    // R(u) = coeff * S(u) summed over participants: O(1) from the
    // engine's running total.
    return support_.total_coefficient * aggregate_state_->total_aggregate();
  }
  if (rct_state_) {
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
  // The served values, bit-identical to reward(u), are priced block by
  // block as the batch sweep reaches them; no served vector is built.
  ServedRewards served(tree().node_count(),
                       [this](NodeId first, std::span<double> out) {
                         fill_rewards(first, out);
                       });
  return mechanism_->max_divergence(tree(), served);
}

}  // namespace itree
