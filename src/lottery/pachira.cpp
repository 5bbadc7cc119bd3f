#include "lottery/pachira.h"

#include <cmath>

#include "tree/subtree_sums.h"
#include "util/check.h"

namespace itree {

Pachira::Pachira(double beta, double delta) : beta_(beta), delta_(delta) {
  require(beta >= 0.0 && beta <= 1.0, "Pachira: beta must be in [0, 1]");
  require(delta > 0.0, "Pachira: delta must be > 0");
}

double Pachira::pi(double x) const {
  return beta_ * x + (1.0 - beta_) * std::pow(x, 1.0 + delta_);
}

std::vector<double> Pachira::shares(const Tree& tree) const {
  const std::size_t n = tree.node_count();
  std::vector<double> out(n, 0.0);
  const double total = tree.total_contribution();
  if (total <= 0.0) {
    return out;
  }
  const std::vector<double> subtree = subtree_contributions(tree);
  for (NodeId u = 1; u < n; ++u) {
    double share = pi(subtree[u] / total);
    for (NodeId child : tree.children(u)) {
      share -= pi(subtree[child] / total);
    }
    out[u] = share;
  }
  return out;
}

}  // namespace itree
