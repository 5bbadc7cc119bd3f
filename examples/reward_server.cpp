// Running an Incentive Tree deployment as a service: event log in,
// rewards out — with an audit before payout and a what-if re-pricing of
// the same history under a different mechanism.
//
//   $ example_reward_server
#include <iostream>

#include "core/registry.h"
#include "server/event_log.h"
#include "util/strings.h"
#include "util/table.h"

int main() {
  using namespace itree;

  const MechanismPtr live = make_default(MechanismKind::kGeometric);
  RewardService service(*live);
  // The deployment keeps its event history beside the live service.
  EventLog history;
  const auto join = [&](NodeId referrer, double contribution) {
    const JoinEvent event{referrer, contribution};
    history.append(event);
    return service.apply(event);
  };
  const auto contribute = [&](NodeId participant, double amount) {
    const ContributeEvent event{participant, amount};
    history.append(event);
    service.apply(event);
  };

  // A week of traffic.
  const NodeId ada = join(kRoot, 5.0);
  const NodeId bob = join(ada, 3.0);
  const NodeId cai = join(ada, 2.0);
  contribute(bob, 1.5);
  const NodeId dee = join(bob, 4.0);
  contribute(ada, 2.0);
  const NodeId eve = join(cai, 1.0);

  std::cout << "Live mechanism: " << live->display_name() << '\n'
            << "Events applied: " << service.events_applied() << "\n\n";

  TextTable table({"participant", "reward now"});
  const std::vector<std::pair<std::string, NodeId>> people = {
      {"Ada", ada}, {"Bob", bob}, {"Cai", cai}, {"Dee", dee}, {"Eve", eve}};
  for (const auto& [name, id] : people) {
    table.add_row({name, TextTable::num(service.reward(id), 4)});
  }
  std::cout << table.to_string()
            << "total payout now: " << compact_number(service.total_reward(), 4)
            << "\npre-payout audit (|incremental - batch|): "
            << compact_number(service.audit(), 12) << "\n\n";

  // Persist and replay: the deployment is its event log.
  const std::string persisted = history.serialize();
  std::cout << "Event log (" << history.size() << " events):\n"
            << persisted << '\n';
  const RewardService replayed =
      EventLog::parse(persisted).replay(*live);
  std::cout << "Replay check: Ada's reward "
            << compact_number(replayed.reward(ada), 4) << " (matches "
            << compact_number(service.reward(ada), 4) << ")\n\n";

  // What-if: re-price the same history under a Sybil-proof mechanism
  // before migrating.
  const MechanismPtr candidate = make_default(MechanismKind::kCdrmReciprocal);
  const RewardService repriced =
      EventLog::parse(persisted).replay(*candidate);
  TextTable whatif({"participant", live->name(), candidate->name()});
  for (const auto& [name, id] : people) {
    whatif.add_row({name, TextTable::num(service.reward(id), 4),
                    TextTable::num(repriced.reward(id), 4)});
  }
  std::cout << "Migration what-if (same history, candidate mechanism "
            << candidate->display_name() << "):\n"
            << whatif.to_string();
  return 0;
}
