#include "tree/metrics.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "tree/subtree_sums.h"
#include "util/stats.h"
#include "util/strings.h"

namespace itree {

TreeMetrics compute_metrics(const Tree& tree) {
  TreeMetrics metrics;
  metrics.participants = tree.participant_count();
  metrics.forest_roots = tree.children(kRoot).size();
  metrics.total_contribution = tree.total_contribution();
  if (metrics.participants == 0) {
    return metrics;
  }

  const std::vector<std::uint32_t> depths = node_depths(tree);
  const std::vector<std::uint32_t> strahler = binary_subtree_depths(tree);

  OnlineStats depth_stats;
  OnlineStats branching_stats;
  std::vector<double> contributions;
  contributions.reserve(metrics.participants);
  for (NodeId u = 1; u < tree.node_count(); ++u) {
    const std::size_t depth = depths[u];
    depth_stats.add(static_cast<double>(depth));
    metrics.max_depth = std::max<std::size_t>(metrics.max_depth, depth);
    const std::size_t out_degree = tree.children(u).size();
    if (out_degree == 0) {
      ++metrics.leaves;
    } else {
      branching_stats.add(static_cast<double>(out_degree));
      metrics.max_out_degree =
          std::max(metrics.max_out_degree, out_degree);
    }
    contributions.push_back(tree.contribution(u));
    metrics.max_contribution =
        std::max(metrics.max_contribution, tree.contribution(u));
  }
  metrics.mean_depth = depth_stats.mean();
  metrics.mean_branching =
      branching_stats.count() > 0 ? branching_stats.mean() : 0.0;
  metrics.contribution_gini = gini(std::move(contributions));
  // Forest Strahler: best over the forest roots (the imaginary root's
  // value would count the root itself as a junction).
  std::uint32_t best = 0;
  for (NodeId child : tree.children(kRoot)) {
    best = std::max(best, strahler[child]);
  }
  metrics.strahler = best;
  return metrics;
}

std::string to_string(const TreeMetrics& metrics) {
  std::ostringstream out;
  out << "n=" << metrics.participants << " roots=" << metrics.forest_roots
      << " leaves=" << metrics.leaves << " depth(max/mean)="
      << metrics.max_depth << "/" << compact_number(metrics.mean_depth, 2)
      << " branching=" << compact_number(metrics.mean_branching, 2)
      << " maxdeg=" << metrics.max_out_degree
      << " C(T)=" << compact_number(metrics.total_contribution, 2)
      << " gini=" << compact_number(metrics.contribution_gini, 3)
      << " strahler=" << metrics.strahler;
  return out.str();
}

}  // namespace itree
