// Referral tree: the core data structure of the paper's model (Sec. 2).
//
// Participants form a referral forest F; following the paper we store the
// equivalent referral tree T with an imaginary root node `kRoot` of
// contribution 0 whose children are the forest roots. Node weights are
// contributions C(u) >= 0.
//
// The structure is a struct-of-arrays arena (indices, no pointers, no
// per-node heap allocations) and append-only: participants join over
// time, as the CSI / USA property definitions require, but never leave.
// Contributions are mutable (needed by the CCI and SL checkers, and by
// the "buyer keeps purchasing" MLM view).
//
// Layout: six parallel arrays indexed by NodeId (28 bytes per node) —
//   parent_        parent id (kInvalidNode for the root)
//   first_child_   head of the child list (kInvalidNode if leaf)
//   last_child_    tail of the child list (O(1) append)
//   next_sibling_  forward sibling chain, in join order
//   depth_         cached depth (O(1) depth queries; ancestor walks on
//                  the serving hot path early-exit on it)
//   contribution_  C(u)
// Child order is join order, exactly as the old vector-of-vectors arena
// reported it, so every traversal and hence every FP evaluation order —
// and the BENCH digest trajectory — is unchanged.
//
// Columns are borrow-capable (ArenaColumn): a tree stood up from an
// mmap-ed v5 snapshot image (Tree::adopt_columns) starts life with every
// column pointing into the read-only mapping — zero per-node work — and
// privatizes a column into owned memory only on that column's first
// mutation (copy-on-first-mutation, per column, so a read-heavy replica
// never copies the link columns at all). A keepalive shared_ptr pins the
// mapping for as long as any borrowing tree (or copy of one) is alive,
// and a privatizing column hands the range it just copied back to the
// mapping's owner (BorrowedStorage), which may drop those pages.
#pragma once

#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace itree {

using NodeId = std::uint32_t;

class Tree;

/// Copies every forest root of `src` (with its subtree, sibling order
/// preserved) under `dst_parent`; returns the new ids of the copied
/// forest roots. `dst` and `src` must be different trees.
std::vector<NodeId> graft_forest(Tree& dst, NodeId dst_parent,
                                 const Tree& src);

/// The imaginary root r with C(r) = 0 (paper Sec. 2). It is not a
/// participant: mechanisms never pay it.
inline constexpr NodeId kRoot = 0;

inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();

/// The owner of storage that adopted columns borrow (a mapped snapshot
/// image). A borrowed column that privatizes hands the range it just
/// copied back through release(). Other copies of the tree may still
/// borrow that range, so an owner may only drop bytes it can later
/// re-read bit-equal (clean pages of a read-only file mapping).
class BorrowedStorage {
 public:
  virtual void release(const void* data, std::size_t bytes) const = 0;

 protected:
  ~BorrowedStorage() = default;
};

/// One arena column: an owned vector that can instead *borrow* read-only
/// storage (an mmap-ed snapshot section). Reads always go through
/// data_/size_; every mutating operation first privatizes a borrowed
/// column (one bulk copy, then the copied range is released to its
/// storage), after which it behaves exactly like the vector it wraps.
/// Copying a borrowed column copies the borrow (cheap), not the bytes —
/// the owner of the borrowed storage (Tree's keepalive) must outlive
/// every copy.
template <typename T>
class ArenaColumn {
 public:
  ArenaColumn() = default;

  ArenaColumn(const ArenaColumn& other) : owned_(other.owned_) {
    if (other.borrowed_) {
      data_ = other.data_;
      size_ = other.size_;
      borrowed_ = true;
      storage_ = other.storage_;
    } else {
      sync();
    }
  }

  ArenaColumn(ArenaColumn&& other) noexcept
      : owned_(std::move(other.owned_)),
        borrowed_(other.borrowed_),
        storage_(other.storage_),
        allocations_(other.allocations_) {
    // A moved vector keeps its heap buffer, but re-sync anyway so the
    // pointer never dangles on empty/borrowed edge cases.
    if (borrowed_) {
      data_ = other.data_;
      size_ = other.size_;
    } else {
      sync();
    }
    other.reset();
  }

  ArenaColumn& operator=(const ArenaColumn& other) {
    if (this != &other) {
      owned_ = other.owned_;
      borrowed_ = other.borrowed_;
      storage_ = other.storage_;
      allocations_ = other.allocations_;
      if (borrowed_) {
        data_ = other.data_;
        size_ = other.size_;
      } else {
        sync();
      }
    }
    return *this;
  }

  ArenaColumn& operator=(ArenaColumn&& other) noexcept {
    if (this != &other) {
      owned_ = std::move(other.owned_);
      borrowed_ = other.borrowed_;
      storage_ = other.storage_;
      allocations_ = other.allocations_;
      if (borrowed_) {
        data_ = other.data_;
        size_ = other.size_;
      } else {
        sync();
      }
      other.reset();
    }
    return *this;
  }

  /// Points the column at caller-owned read-only storage, released to
  /// `storage` (when given) once privatized. The previous contents are
  /// discarded, and the allocation counter restarts: an adopted column
  /// reports only the work done since adoption (its privatization, if
  /// any), not the root-row bootstrap it replaced.
  void borrow(const T* data, std::size_t size,
              const BorrowedStorage* storage) {
    owned_.clear();
    owned_.shrink_to_fit();
    data_ = data;
    size_ = size;
    borrowed_ = true;
    storage_ = storage;
    allocations_ = 0;
  }

  bool borrowed() const { return borrowed_; }

  const T* data() const { return data_; }
  std::size_t size() const { return size_; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  const T& back() const { return data_[size_ - 1]; }
  std::span<const T> span() const { return {data_, size_}; }

  /// Mutable access to one slot; privatizes a borrowed column first.
  T& mut(std::size_t i) {
    ensure_owned();
    return owned_[i];
  }

  void push_back(const T& value) {
    ensure_owned();
    if (owned_.size() == owned_.capacity()) {
      ++allocations_;
    }
    owned_.push_back(value);
    sync();
  }

  void pop_back() {
    ensure_owned();
    owned_.pop_back();
    sync();
  }

  void reserve(std::size_t n) {
    if (n <= size_) {
      return;  // capacity hint already satisfied (or a borrowed prefix)
    }
    ensure_owned();
    if (n > owned_.capacity()) {
      ++allocations_;
      owned_.reserve(n);
      sync();
    }
  }

  /// Takes ownership of a fully built vector (the parallel bulk-build
  /// path constructs columns as plain vectors first).
  void take(std::vector<T>&& values) {
    borrowed_ = false;
    storage_ = nullptr;
    ++allocations_;
    owned_ = std::move(values);
    sync();
  }

  /// Replaces the contents with an owned copy of `values`.
  void assign(std::span<const T> values) {
    borrowed_ = false;
    storage_ = nullptr;
    ++allocations_;
    owned_.assign(values.begin(), values.end());
    sync();
  }

  /// Copies borrowed storage into owned memory (no-op when owned), then
  /// hands the copied range back to its storage: nothing in this column
  /// reads it again.
  void ensure_owned() {
    if (!borrowed_) {
      return;
    }
    ++allocations_;
    owned_.assign(data_, data_ + size_);
    if (storage_ != nullptr) {
      storage_->release(data_, size_ * sizeof(T));
    }
    borrowed_ = false;
    storage_ = nullptr;
    sync();
  }

  /// Heap allocations this column has performed (growth reallocations +
  /// privatizations) — the bench's pre-sizing report.
  std::size_t allocations() const { return allocations_; }

 private:
  void sync() {
    data_ = owned_.data();
    size_ = owned_.size();
  }
  void reset() {
    owned_.clear();
    borrowed_ = false;
    storage_ = nullptr;
    sync();
  }

  std::vector<T> owned_;
  const T* data_ = nullptr;
  std::size_t size_ = 0;
  bool borrowed_ = false;
  /// Told of the range a privatization copied; null when owned or when
  /// the borrowed storage has nothing to give back.
  const BorrowedStorage* storage_ = nullptr;
  std::size_t allocations_ = 0;
};

/// A node's children as a lightweight view over the arena's sibling
/// chain, in join order (the order the old per-node child vectors kept).
/// Valid until the next structural mutation of the tree.
class ChildRange {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = NodeId;
    using difference_type = std::ptrdiff_t;
    using pointer = const NodeId*;
    using reference = NodeId;

    iterator() = default;
    iterator(const NodeId* next_sibling, NodeId at)
        : next_sibling_(next_sibling), at_(at) {}

    NodeId operator*() const { return at_; }
    iterator& operator++() {
      at_ = next_sibling_[at_];
      return *this;
    }
    iterator operator++(int) {
      iterator copy = *this;
      ++*this;
      return copy;
    }
    bool operator==(const iterator& other) const { return at_ == other.at_; }
    bool operator!=(const iterator& other) const { return at_ != other.at_; }

   private:
    const NodeId* next_sibling_ = nullptr;
    NodeId at_ = kInvalidNode;
  };

  ChildRange(const NodeId* next_sibling, NodeId first)
      : next_sibling_(next_sibling), first_(first) {}

  iterator begin() const { return {next_sibling_, first_}; }
  iterator end() const { return {next_sibling_, kInvalidNode}; }

  bool empty() const { return first_ == kInvalidNode; }
  NodeId front() const { return first_; }

  /// Number of children — O(degree), it walks the chain.
  std::size_t size() const {
    std::size_t count = 0;
    for (NodeId at = first_; at != kInvalidNode; at = next_sibling_[at]) {
      ++count;
    }
    return count;
  }

  /// i-th child in join order — O(i).
  NodeId operator[](std::size_t i) const {
    NodeId at = first_;
    while (i-- > 0) {
      at = next_sibling_[at];
    }
    return at;
  }

  std::vector<NodeId> to_vector() const {
    return std::vector<NodeId>(begin(), end());
  }

 private:
  const NodeId* next_sibling_;
  NodeId first_;
};

class Tree {
 public:
  /// The full-arena column set, spans indexed by node id (entry 0 is the
  /// imaginary root).
  struct Columns {
    std::span<const NodeId> parent;
    std::span<const NodeId> first_child;
    std::span<const NodeId> last_child;
    std::span<const NodeId> next_sibling;
    std::span<const std::uint32_t> depth;
    std::span<const double> contribution;
  };

  /// Creates a tree containing only the imaginary root.
  Tree();

  /// Pre-sizes the arena for `nodes` total nodes (including the
  /// imaginary root). Purely a capacity hint; no-op when already large
  /// enough. Generators pass their target size through here so giant
  /// trees build without reallocation.
  void reserve(std::size_t nodes);

  /// Stands up a fully linked tree directly over externally owned
  /// column storage (the v5 snapshot path): every column *borrows* the
  /// given spans — zero per-node construction work — and `keepalive` is
  /// pinned for the lifetime of the tree and all its copies (pass the
  /// mmap holder). Adoption runs a *safety* scan, not a semantic one:
  /// purely sequential range checks (parents precede their nodes,
  /// sibling/child links stay in
  /// (u, node_count), contributions non-negative, well-formed root row)
  /// that guarantee every traversal terminates and never reads out of
  /// bounds, at memory-bandwidth cost. Semantic integrity of the links
  /// is the caller's trust boundary — the snapshot layer's per-section
  /// CRCs — and can be proven on demand with validate_links(); a
  /// corrupt-but-CRC-colliding image can at worst misreport rewards,
  /// never crash, hang, or touch foreign memory. Throws
  /// std::invalid_argument on any violation. `total_contribution` is
  /// the writer's accumulated C(T) (history-dependent FP), adopted
  /// bit-exactly. When `storage` is given (it must be pinned by
  /// `keepalive`), each column that later privatizes releases the range
  /// it copied to it.
  static Tree adopt_columns(const Columns& columns, double total_contribution,
                            std::shared_ptr<const void> keepalive,
                            const BorrowedStorage* storage = nullptr);

  /// Full O(1)-per-node cross-link verification of the arena: every
  /// child chain is exactly the canonical append-order one, and depth
  /// obeys the parent recurrence. One read-only ascending pass with an
  /// O(n) scratch column; throws std::invalid_argument on the first
  /// violation. Tests, fuzzers and paranoid operators run
  /// this after adopt_columns; the serving path relies on the snapshot
  /// CRCs instead (see adopt_columns).
  void validate_links() const;

  /// Adds a participant with the given contribution as a child of
  /// `parent`. Returns the new node's id. Requires `parent` to exist and
  /// `contribution >= 0`. O(1).
  NodeId add_node(NodeId parent, double contribution);

  /// Adds a participant who joined independently of any solicitation
  /// (a forest root; child of the imaginary root).
  NodeId add_independent(double contribution) {
    return add_node(kRoot, contribution);
  }

  /// Total number of nodes including the imaginary root.
  std::size_t node_count() const { return parent_.size(); }

  /// Number of participants (excludes the imaginary root).
  std::size_t participant_count() const { return parent_.size() - 1; }

  bool contains(NodeId u) const { return u < parent_.size(); }

  /// Parent of `u`; the root's parent is kInvalidNode.
  NodeId parent(NodeId u) const;

  /// Children of `u` in join order. The range reads the arena in place;
  /// it is valid until the next structural mutation.
  ChildRange children(NodeId u) const;

  double contribution(NodeId u) const;

  /// Updates a participant's contribution (e.g. an additional purchase in
  /// the MLM view). The imaginary root must stay at 0.
  void set_contribution(NodeId u, double contribution);

  /// Removes the most recently added node — always a leaf and its
  /// parent's newest child — in O(deg(parent)): the "probe" undo the
  /// simulator uses to measure marginal rewards without copying the
  /// tree. The root cannot be removed.
  void remove_last_node();

  /// C(T): total contribution over all nodes (root contributes 0).
  double total_contribution() const { return total_contribution_; }

  /// Depth of `u`: number of edges from the root. O(1) — cached in the
  /// arena at insertion.
  std::size_t depth(NodeId u) const;

  /// All nodes of the subtree T_u in preorder. O(|T_u|).
  std::vector<NodeId> subtree(NodeId u) const;

  /// C(T_u): contribution sum over the subtree rooted at `u`. O(|T_u|).
  double subtree_contribution(NodeId u) const;

  /// All node ids in postorder (every child precedes its parent);
  /// iterative, safe for million-node chains. O(n).
  std::vector<NodeId> postorder() const;

  /// All node ids in preorder (every parent precedes its children). O(n).
  std::vector<NodeId> preorder() const;

  /// Participant ids (all nodes except the imaginary root), in id order.
  std::vector<NodeId> participants() const;

  /// Raw arena columns, indexed by node id (entry 0 is the imaginary
  /// root: parent kInvalidNode, contribution 0). The batch kernels
  /// (tree/subtree_sums.h, Mechanism::compute) sweep these in place and
  /// the snapshot-image writers bulk-copy them, instead of walking
  /// checked accessors. Valid until the next mutation.
  std::span<const NodeId> parent_array() const { return parent_.span(); }
  std::span<const double> contribution_array() const {
    return contribution_.span();
  }
  std::span<const NodeId> first_child_array() const {
    return first_child_.span();
  }
  std::span<const NodeId> last_child_array() const {
    return last_child_.span();
  }
  std::span<const NodeId> next_sibling_array() const {
    return next_sibling_.span();
  }
  std::span<const std::uint32_t> depth_array() const { return depth_.span(); }

  /// Heap allocations the arena has performed across all columns
  /// (growth reallocations and copy-on-write privatizations). A
  /// generator-hinted build performs exactly one per column; an adopted
  /// tree starts at 0 and pays one per column it mutates.
  std::size_t allocation_count() const;

  /// Columns still backed by externally owned storage (6 right after
  /// adopt_columns, dropping as mutations privatize them; 0 for a tree
  /// built through the append path).
  std::size_t borrowed_column_count() const;

 private:
  void check_node(NodeId u, const char* what) const;

  ArenaColumn<NodeId> parent_;
  ArenaColumn<NodeId> first_child_;
  ArenaColumn<NodeId> last_child_;
  ArenaColumn<NodeId> next_sibling_;
  ArenaColumn<std::uint32_t> depth_;
  ArenaColumn<double> contribution_;
  double total_contribution_ = 0.0;
  /// Pins the storage borrowed columns point into (the mmap holder of
  /// an adopted v5 image); shared across copies of the tree.
  std::shared_ptr<const void> keepalive_;
};

}  // namespace itree
