#include "tree/tree.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include "util/check.h"
#include "util/parallel.h"

namespace itree {
namespace {

/// Tree::adopt_columns' safety predicates, one mask bit each; a failing
/// scan block reports its lowest set bit.
constexpr const char* kAdoptViolations[] = {
    "Tree::adopt_columns: child link out of range",
    "Tree::adopt_columns: parent id does not precede the node",
    "Tree::adopt_columns: negative contribution",
    "Tree::adopt_columns: next-sibling out of range",
};
/// The child-link bit: the only predicate the root row scans.
constexpr unsigned kAdoptChildLinkBits = 0b1u;
/// Nodes per adopt_columns scan block (one parallel_for task each).
constexpr std::size_t kAdoptScanBlock = 1u << 16;

}  // namespace

Tree::Tree() {
  parent_.push_back(kInvalidNode);
  last_child_.push_back(kInvalidNode);
  next_sibling_.push_back(kInvalidNode);
  contribution_.push_back(0.0);
}

void Tree::reserve(std::size_t nodes) {
  parent_.reserve(nodes);
  last_child_.reserve(nodes);
  next_sibling_.reserve(nodes);
  contribution_.reserve(nodes);
}

void Tree::check_node(NodeId u, const char* what) const {
  // The message is formatted only on the throwing branch: this check
  // guards every ancestor step of an event's walk.
  if (!contains(u)) [[unlikely]] {
    throw std::invalid_argument(std::string(what) + ": node does not exist");
  }
}

NodeId Tree::add_node(NodeId parent, double contribution) {
  check_node(parent, "Tree::add_node");
  require(contribution >= 0.0, "Tree::add_node: contribution must be >= 0");
  const auto id = static_cast<NodeId>(parent_.size());
  // Read the link state *before* any push_back: a reallocation must not
  // invalidate what the ring splice below needs. The new node goes in
  // after the newest child, so it links on to the oldest (or, as a lone
  // child, to itself).
  const NodeId tail = last_child_[parent];
  const NodeId oldest = tail == kInvalidNode ? id : next_sibling_[tail];
  parent_.push_back(parent);
  last_child_.push_back(kInvalidNode);
  next_sibling_.push_back(oldest);
  contribution_.push_back(contribution);
  if (tail != kInvalidNode) {
    next_sibling_.mut(tail) = id;
  }
  last_child_.mut(parent) = id;
  total_contribution_ += contribution;
  return id;
}

Tree Tree::adopt_columns(const Columns& columns, double total_contribution,
                         std::shared_ptr<const void> keepalive,
                         const BorrowedStorage* storage) {
  const std::size_t n = columns.parent.size();
  require(n >= 1, "Tree::adopt_columns: missing the imaginary root");
  require(n < kInvalidNode, "Tree::adopt_columns: impossible node count");
  require(columns.last_child.size() == n && columns.next_sibling.size() == n &&
              columns.contribution.size() == n,
          "Tree::adopt_columns: column size mismatch");
  const NodeId* parent = columns.parent.data();
  const NodeId* last_child = columns.last_child.data();
  const NodeId* next_sibling = columns.next_sibling.data();
  const double* contribution = columns.contribution.data();
  require(parent[kRoot] == kInvalidNode && contribution[kRoot] == 0.0 &&
              next_sibling[kRoot] == kInvalidNode,
          "Tree::adopt_columns: malformed root row");

  // Safety scan, not a semantic one: every load below is indexed by u,
  // so the whole pass streams each column forward at memory-bandwidth
  // cost — no dependent random reads, which is what keeps mmap-adoption
  // O(bytes) while a link rebuild (or a cross-link proof, see
  // validate_links()) pays a cache miss per node. The range checks are
  // chosen so that every traversal over the adopted arena terminates
  // and stays in bounds regardless of the column *values*: parents
  // strictly precede their node (upward walks reach the root in <= u
  // steps), newest-child links strictly follow it, every participant's
  // ring link is a participant id, and the child walk (child_after)
  // only ever climbs from a node towards its newest child. Semantic
  // link integrity is the caller's trust boundary — the snapshot
  // layer's per-section CRCs.
  //
  // Each block is one branch-free loop that ORs every node's failed
  // predicates into a mask (bit i = kAdoptViolations[i]); only a
  // non-zero mask is looked at, and its lowest bit names the violation.
  const std::size_t blocks = (n + kAdoptScanBlock - 1) / kAdoptScanBlock;
  parallel_for(blocks, [&](std::size_t b) {
    const std::size_t lo = b * kAdoptScanBlock;
    const std::size_t hi = std::min(n, lo + kAdoptScanBlock);
    unsigned mask = 0;
    for (std::size_t ui = lo; ui < hi; ++ui) {
      const auto u = static_cast<NodeId>(ui);
      const NodeId lc = last_child[u];
      const NodeId nx = next_sibling[u];
      const bool child_bad = (lc != kInvalidNode) & ((lc <= u) | (lc >= n));
      const unsigned bad =
          static_cast<unsigned>(child_bad) |
          static_cast<unsigned>(parent[u] >= u) << 1 |
          static_cast<unsigned>(!(contribution[u] >= 0.0)) << 2 |
          static_cast<unsigned>((nx == kRoot) | (nx >= n)) << 3;
      // The root row's participant checks were done above; only its
      // child link is scanned here.
      mask |= bad & (u == kRoot ? kAdoptChildLinkBits : ~0u);
    }
    if (mask != 0) {
      throw std::invalid_argument(kAdoptViolations[std::countr_zero(mask)]);
    }
  });

  Tree tree;
  tree.parent_.borrow(parent, n, storage);
  tree.last_child_.borrow(last_child, n, storage);
  tree.next_sibling_.borrow(next_sibling, n, storage);
  tree.contribution_.borrow(contribution, n, storage);
  tree.total_contribution_ = total_contribution;
  tree.keepalive_ = std::move(keepalive);
  return tree;
}

Tree Tree::adopt_columns(Columns columns, std::vector<NodeId>&& ring,
                         double total_contribution,
                         std::shared_ptr<const void> keepalive,
                         const BorrowedStorage* storage) {
  columns.next_sibling = ring;
  Tree tree = adopt_columns(columns, total_contribution, std::move(keepalive),
                            storage);
  // Moving the vector keeps its buffer: the column owns exactly the
  // bytes the scan just vouched for.
  tree.next_sibling_.take(std::move(ring));
  return tree;
}

void Tree::validate_links() const {
  const std::size_t n = node_count();
  const NodeId* parent = parent_.data();
  const NodeId* last_child = last_child_.data();
  const NodeId* next_sibling = next_sibling_.data();
  const double* contribution = contribution_.data();
  require(parent[kRoot] == kInvalidNode && contribution[kRoot] == 0.0 &&
              next_sibling[kRoot] == kInvalidNode,
          "Tree::validate_links: malformed root row");

  // One ascending pass replays the appends: `newest[p]` is the largest
  // child of p met so far and `oldest[p]` the smallest, so the ring link
  // out of newest[p] must be the next child u; once every node is met,
  // last_child[p] must be newest[p] and the ring must close from it back
  // to oldest[p]. That forces every link to be the one add_node would
  // have written.
  std::vector<NodeId> newest(n, kInvalidNode);
  std::vector<NodeId> oldest(n, kInvalidNode);
  for (NodeId u = 1; u < n; ++u) {
    const NodeId p = parent[u];
    require(p < u, "Tree::validate_links: parent id does not precede the node");
    require(contribution[u] >= 0.0,
            "Tree::validate_links: negative contribution");
    if (newest[p] == kInvalidNode) {
      oldest[p] = u;
    } else {
      require(next_sibling[newest[p]] == u,
              "Tree::validate_links: sibling ring out of join order");
    }
    newest[p] = u;
  }
  for (NodeId p = 0; p < n; ++p) {
    require(last_child[p] == newest[p],
            "Tree::validate_links: last child is not the newest child");
    require(newest[p] == kInvalidNode || next_sibling[newest[p]] == oldest[p],
            "Tree::validate_links: sibling ring does not close at the "
            "oldest child");
  }
}

NodeId Tree::parent(NodeId u) const {
  check_node(u, "Tree::parent");
  return parent_[u];
}

ChildRange Tree::children(NodeId u) const {
  check_node(u, "Tree::children");
  return ChildRange(next_sibling_.data(), u, last_child_[u]);
}

double Tree::contribution(NodeId u) const {
  check_node(u, "Tree::contribution");
  return contribution_[u];
}

void Tree::set_contribution(NodeId u, double contribution) {
  check_node(u, "Tree::set_contribution");
  require(contribution >= 0.0,
          "Tree::set_contribution: contribution must be >= 0");
  require(u != kRoot || contribution == 0.0,
          "Tree::set_contribution: the imaginary root contributes 0");
  total_contribution_ += contribution - contribution_[u];
  contribution_.mut(u) = contribution;
}

void Tree::remove_last_node() {
  require(parent_.size() > 1, "Tree::remove_last_node: no participants");
  const NodeId last = static_cast<NodeId>(parent_.size() - 1);
  ensure(last_child_[last] == kInvalidNode,
         "Tree::remove_last_node: the last node must be a leaf");
  const NodeId p = parent_[last];
  ensure(last_child_[p] == last,
         "Tree::remove_last_node: the last node must be its parent's "
         "newest child");
  // Unsplice from the parent's ring: the child folded just before the
  // newest one is its predecessor (none for a lone child), O(deg(p)).
  const NodeId prev = fold_children(
      last_child_.data(), next_sibling_.data(), p, kInvalidNode,
      [last](NodeId before, NodeId c) { return c == last ? before : c; });
  last_child_.mut(p) = prev;
  if (prev != kInvalidNode) {
    next_sibling_.mut(prev) = next_sibling_[last];
  }
  total_contribution_ -= contribution_[last];
  parent_.pop_back();
  last_child_.pop_back();
  next_sibling_.pop_back();
  contribution_.pop_back();
}

std::size_t Tree::depth(NodeId u) const {
  check_node(u, "Tree::depth");
  std::size_t depth = 0;
  for (NodeId at = parent_[u]; at != kInvalidNode; at = parent_[at]) {
    ++depth;
  }
  return depth;
}

std::vector<std::uint32_t> node_depths(const Tree& tree) {
  const std::span<const NodeId> parent = tree.parent_array();
  std::vector<std::uint32_t> depth(parent.size(), 0);
  for (std::size_t u = 1; u < parent.size(); ++u) {
    depth[u] = depth[parent[u]] + 1;
  }
  return depth;
}

std::size_t Tree::allocation_count() const {
  return parent_.allocations() + last_child_.allocations() +
         next_sibling_.allocations() + contribution_.allocations();
}

std::size_t Tree::borrowed_column_count() const {
  return static_cast<std::size_t>(parent_.borrowed()) +
         last_child_.borrowed() + next_sibling_.borrowed() +
         contribution_.borrowed();
}

std::vector<NodeId> Tree::subtree(NodeId u) const {
  check_node(u, "Tree::subtree");
  std::vector<NodeId> out;
  // Preorder: popping v visits it, then pushes its children reversed, so
  // they pop in join order — the same order as the old walk that pushed
  // each child vector reversed.
  std::vector<NodeId> stack{u};
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    out.push_back(v);
    const std::size_t mark = stack.size();
    push_children(v, stack);
    std::reverse(stack.begin() + static_cast<std::ptrdiff_t>(mark),
                 stack.end());
  }
  return out;
}

void Tree::push_children(NodeId u, std::vector<NodeId>& stack) const {
  for_each_child(last_child_.data(), next_sibling_.data(), u,
                 [&stack](NodeId c) { stack.push_back(c); });
}

double Tree::subtree_contribution(NodeId u) const {
  double total = 0.0;
  for (NodeId v : subtree(u)) {
    total += contribution_[v];
  }
  return total;
}

std::vector<NodeId> Tree::preorder() const { return subtree(kRoot); }

std::vector<NodeId> Tree::postorder() const {
  // Pushing each node's children in join order pops them right to left,
  // so the walk visits parents before children with children
  // right-to-left, and reversing it yields the postorder (children
  // left-to-right, every child before its parent).
  std::vector<NodeId> order;
  order.reserve(node_count());
  std::vector<NodeId> stack{kRoot};
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    order.push_back(v);
    push_children(v, stack);
  }
  std::vector<NodeId> out(order.rbegin(), order.rend());
  return out;
}

namespace {

/// Copies the subtree of `src` rooted at the forest root `src_node` into
/// `dst` as a new child of `dst_parent`; returns the id of the copy.
NodeId graft_subtree(Tree& dst, NodeId dst_parent, const Tree& src,
                     NodeId src_node) {
  const NodeId copied_root =
      dst.add_node(dst_parent, src.contribution(src_node));
  // Pair stack of (src node, its copy's id). Children are *added* in
  // forward order (preserving sibling order); stack order is irrelevant
  // because each pair carries its own destination.
  std::vector<std::pair<NodeId, NodeId>> stack{{src_node, copied_root}};
  while (!stack.empty()) {
    const auto [s, d] = stack.back();
    stack.pop_back();
    for (NodeId child : src.children(s)) {
      stack.emplace_back(child, dst.add_node(d, src.contribution(child)));
    }
  }
  return copied_root;
}

}  // namespace

std::vector<NodeId> graft_forest(Tree& dst, NodeId dst_parent,
                                 const Tree& src) {
  require(&dst != &src,
          "graft_forest: grafting a tree into itself would walk a "
          "chain it is mutating");
  std::vector<NodeId> copied;
  for (NodeId child : src.children(kRoot)) {
    copied.push_back(graft_subtree(dst, dst_parent, src, child));
  }
  return copied;
}

std::vector<NodeId> Tree::participants() const {
  std::vector<NodeId> out;
  out.reserve(participant_count());
  for (NodeId u = 1; u < node_count(); ++u) {
    out.push_back(u);
  }
  return out;
}

}  // namespace itree
