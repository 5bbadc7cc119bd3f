// A9 — campaign reach under contact-network constraints: the same
// mechanisms spreading over small-world vs scale-free social graphs.
// Adoption depends on the interaction of incentive pull (the CSI margin)
// with network structure (hubs vs local clustering).
#include "bench_harness.h"
#include <algorithm>
#include <iostream>

#include "core/registry.h"
#include "sim/network.h"
#include "util/table.h"

int main(int argc, char** argv) {
  itree::BenchHarness harness("a9_network", &argc, argv);
  using namespace itree;

  constexpr std::size_t kPopulation = 300;
  Rng graph_rng(2718);
  const SocialGraph small_world =
      SocialGraph::watts_strogatz(kPopulation, 6, 0.1, graph_rng);
  const SocialGraph scale_free =
      SocialGraph::barabasi_albert(kPopulation, 3, graph_rng);

  std::cout << "=== A9: campaign reach over contact networks ===\n\n"
            << "Population " << kPopulation
            << "; 60 epochs; 3 seed participants; adoption = fraction "
               "joined.\n\n";

  struct NamedGraph {
    const char* label;
    const SocialGraph* graph;
  };
  for (const NamedGraph& entry :
       {NamedGraph{"small-world (WS k=6, beta=0.1)", &small_world},
        NamedGraph{"scale-free (BA m=3)", &scale_free}}) {
    TextTable table({"mechanism", "adoption", "half-adoption epoch",
                     "reached-but-unconverted", "referral tree depth"});
    for (const MechanismPtr& mechanism : all_feasible_mechanisms()) {
      const NetworkCampaignOutcome outcome =
          run_network_campaign(*mechanism, *entry.graph);
      const std::vector<std::uint32_t> depths = node_depths(outcome.tree);
      const std::uint32_t max_depth =
          *std::max_element(depths.begin(), depths.end());
      table.add_row(
          {outcome.mechanism, TextTable::num(outcome.adoption, 3),
           outcome.half_adoption_epoch > 0
               ? std::to_string(outcome.half_adoption_epoch)
               : "never",
           std::to_string(outcome.reached_but_unconverted),
           std::to_string(max_depth)});
    }
    std::cout << entry.label << ":\n" << table.to_string() << '\n';
  }
  std::cout << "Weak-CSI mechanisms stall regardless of topology; for the "
               "rest, scale-free hubs\nboth accelerate and extend the "
               "cascade (high-degree recruiters meet many\nunjoined "
               "contacts), while ring-like small worlds throttle it to "
               "local frontiers.\n";
  return harness.finish();
}
