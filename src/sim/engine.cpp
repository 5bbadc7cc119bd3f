#include "sim/engine.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/parallel.h"
#include "util/stats.h"

namespace itree {

SimulationEngine::SimulationEngine(const Mechanism& mechanism,
                                   SimulationConfig config)
    : mechanism_(&mechanism),
      config_(std::move(config)),
      rng_(config_.seed),
      strategy_(1, Strategy::kHonest),
      person_(1, 0) {
  require(config_.base_arrival_rate >= 0.0,
          "SimulationEngine: arrival rate must be >= 0");
  require(config_.sybil_fraction >= 0.0 && config_.sybil_fraction <= 1.0 &&
              config_.free_rider_fraction >= 0.0 &&
              config_.sybil_fraction + config_.free_rider_fraction <= 1.0,
          "SimulationEngine: strategy fractions must form a distribution");
  require(config_.sybil_identities >= 1,
          "SimulationEngine: sybil_identities must be >= 1");
}

Strategy SimulationEngine::strategy_of(NodeId u) const {
  require(u < strategy_.size(), "SimulationEngine::strategy_of: bad node");
  return strategy_[u];
}

std::size_t SimulationEngine::person_of(NodeId u) const {
  require(u != kRoot && u < person_.size(),
          "SimulationEngine::person_of: bad node");
  return person_[u];
}

void SimulationEngine::admit(NodeId parent, Strategy strategy) {
  const std::size_t person = person_strategy_.size();
  person_strategy_.push_back(strategy);
  switch (strategy) {
    case Strategy::kHonest: {
      tree_.add_node(parent, config_.contribution(rng_));
      strategy_.push_back(strategy);
      person_.push_back(person);
      break;
    }
    case Strategy::kFreeRider: {
      tree_.add_node(parent, 0.0);
      strategy_.push_back(strategy);
      person_.push_back(person);
      break;
    }
    case Strategy::kSybil: {
      // Chain of identities splitting the contribution (the classic
      // self-referral attack on geometric-style mechanisms).
      const double total = config_.contribution(rng_);
      const auto k = config_.sybil_identities;
      NodeId attach = parent;
      for (std::size_t i = 0; i < k; ++i) {
        attach = tree_.add_node(attach, total / static_cast<double>(k));
        strategy_.push_back(strategy);
        person_.push_back(person);
      }
      break;
    }
  }
}

double SimulationEngine::marginal_reward(NodeId solicitor,
                                         const RewardVector& base) {
  // Probe in place: append the hypothetical recruit, measure, remove.
  tree_.add_node(solicitor, config_.probe_contribution);
  const double with_recruit = mechanism_->reward_of(tree_, solicitor);
  tree_.remove_last_node();
  return with_recruit - base[solicitor];
}

EpochStats SimulationEngine::step() {
  ++epoch_;
  std::size_t joins = 0;

  // Organic arrivals.
  const int organic = rng_.poisson(config_.base_arrival_rate);
  for (int i = 0;
       i < organic && tree_.participant_count() < config_.max_participants;
       ++i) {
    Strategy strategy = Strategy::kHonest;
    const double roll = rng_.uniform01();
    if (roll < config_.sybil_fraction) {
      strategy = Strategy::kSybil;
    } else if (roll < config_.sybil_fraction + config_.free_rider_fraction) {
      strategy = Strategy::kFreeRider;
    }
    admit(kRoot, strategy);
    ++joins;
  }

  // Incentive-driven solicitations.
  OnlineStats marginal_stats;
  if (tree_.participant_count() > 0) {
    // Solicitors are the participants present at the epoch's start: the
    // baseline reward vector is only valid for them (joiners admitted
    // mid-epoch solicit from the next epoch on).
    const std::size_t epoch_population = tree_.participant_count();
    const RewardVector base = mechanism_->compute(tree_);
    const int attempts = std::min<int>(
        static_cast<int>(config_.max_attempts_per_epoch),
        rng_.poisson(config_.solicitation_rate *
                     static_cast<double>(epoch_population)));
    for (int i = 0;
         i < attempts && tree_.participant_count() < config_.max_participants;
         ++i) {
      const NodeId solicitor =
          static_cast<NodeId>(1 + rng_.index(epoch_population));
      const double marginal = marginal_reward(solicitor, base);
      marginal_stats.add(marginal);
      const double success_probability =
          1.0 - std::exp(-config_.reward_responsiveness *
                         std::max(0.0, marginal));
      if (rng_.bernoulli(success_probability)) {
        Strategy strategy = Strategy::kHonest;
        const double roll = rng_.uniform01();
        if (roll < config_.sybil_fraction) {
          strategy = Strategy::kSybil;
        } else if (roll <
                   config_.sybil_fraction + config_.free_rider_fraction) {
          strategy = Strategy::kFreeRider;
        }
        admit(solicitor, strategy);
        ++joins;
      }
    }
  }

  // Repeat purchases by existing participants.
  std::size_t purchases = 0;
  if (config_.repeat_purchase_rate > 0.0 && tree_.participant_count() > 0) {
    const int count = rng_.poisson(config_.repeat_purchase_rate *
                                   static_cast<double>(
                                       tree_.participant_count()));
    for (int i = 0; i < count; ++i) {
      const NodeId buyer =
          static_cast<NodeId>(1 + rng_.index(tree_.participant_count()));
      tree_.set_contribution(
          buyer, tree_.contribution(buyer) + config_.purchase_amount(rng_));
      ++purchases;
    }
  }

  // Metrics.
  EpochStats stats;
  stats.epoch = epoch_;
  stats.purchases_this_epoch = purchases;
  stats.participants = tree_.participant_count();
  stats.joins_this_epoch = joins;
  stats.total_contribution = tree_.total_contribution();
  const RewardVector rewards = mechanism_->compute(tree_);
  stats.total_reward = total_reward(rewards);
  stats.payout_ratio = (stats.total_contribution > 0.0)
                           ? stats.total_reward / stats.total_contribution
                           : 0.0;
  std::vector<double> participant_rewards(rewards.begin() + 1, rewards.end());
  stats.reward_gini = gini(std::move(participant_rewards));
  stats.mean_marginal_reward =
      (marginal_stats.count() > 0) ? marginal_stats.mean() : 0.0;
  const std::vector<std::uint32_t> depth = node_depths(tree_);
  stats.max_depth =
      static_cast<double>(*std::max_element(depth.begin(), depth.end()));

  // Per-person reward-per-contribution by strategy (a Sybil person's
  // identity chain is aggregated before the ratio).
  double honest_reward = 0.0, honest_contribution = 0.0;
  double sybil_reward = 0.0, sybil_contribution = 0.0;
  for (NodeId u = 1; u < tree_.node_count(); ++u) {
    switch (strategy_[u]) {
      case Strategy::kHonest:
        honest_reward += rewards[u];
        honest_contribution += tree_.contribution(u);
        break;
      case Strategy::kSybil:
        sybil_reward += rewards[u];
        sybil_contribution += tree_.contribution(u);
        break;
      case Strategy::kFreeRider:
        break;
    }
  }
  stats.honest_reward_per_contribution =
      honest_contribution > 0.0 ? honest_reward / honest_contribution : 0.0;
  stats.sybil_reward_per_contribution =
      sybil_contribution > 0.0 ? sybil_reward / sybil_contribution : 0.0;
  return stats;
}

std::vector<EpochStats> SimulationEngine::run() {
  std::vector<EpochStats> history;
  history.reserve(config_.epochs);
  for (std::size_t i = 0; i < config_.epochs; ++i) {
    history.push_back(step());
  }
  return history;
}

std::vector<std::vector<EpochStats>> run_simulations(
    const Mechanism& mechanism, const std::vector<SimulationConfig>& configs) {
  return parallel_map<std::vector<EpochStats>>(
      configs.size(), [&](std::size_t i) {
        SimulationEngine engine(mechanism, configs[i]);
        return engine.run();
      });
}

}  // namespace itree
