#include "lottery/luxor.h"

#include "tree/subtree_sums.h"
#include "util/check.h"

namespace itree {

Luxor::Luxor(double delta) : delta_(delta) {
  require(delta > 0.0 && delta < 1.0, "Luxor: delta must be in (0, 1)");
}

std::vector<double> Luxor::shares(const Tree& tree) const {
  const std::size_t n = tree.node_count();
  std::vector<double> out(n, 0.0);
  const double total = tree.total_contribution();
  if (total <= 0.0) {
    return out;
  }
  const std::vector<double> sums = geometric_subtree_sums(tree, delta_);
  for (NodeId u = 1; u < n; ++u) {
    out[u] = (1.0 - delta_) / total * sums[u];
  }
  return out;
}

}  // namespace itree
