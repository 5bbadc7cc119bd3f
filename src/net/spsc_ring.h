// Lock-free single-producer / single-consumer ring buffer.
//
// The multi-reactor server (net/server.cpp) allocates one ring per
// ordered reactor pair: reactor i is the only producer of ring[i][j]
// and reactor j its only consumer, so the classic two-index SPSC
// discipline applies — the producer owns tail_, the consumer owns
// head_, and each side reads the other's index with acquire ordering
// to pair with its release publish. No locks, no CAS loops; push and
// pop are a load, a store, and a move each.
//
// Capacity is rounded up to a power of two. push() returns false when
// the ring is full (the caller decides whether to retry after draining
// its own inbound rings — see Reactor::push); pop() returns
// false when empty.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <utility>
#include <vector>

namespace itree::net {

template <typename T>
class SpscRing {
 public:
  explicit SpscRing(std::size_t capacity = 1024)
      : mask_(std::bit_ceil(capacity < 2 ? std::size_t{2} : capacity) - 1),
        slots_(mask_ + 1) {}

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Producer side. False when full (item is left untouched).
  bool push(T&& item) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_.load(std::memory_order_acquire) > mask_) {
      return false;
    }
    slots_[tail & mask_] = std::move(item);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. False when empty.
  bool pop(T* out) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_.load(std::memory_order_acquire)) {
      return false;
    }
    *out = std::move(slots_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer-side emptiness probe (exact for the consumer; a producer
  /// observing true may be racing a concurrent pop, which is fine for
  /// the drain protocol's "no more traffic can appear" check).
  bool empty() const {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

  std::size_t capacity() const { return mask_ + 1; }

 private:
  // Head and tail on separate cache lines so producer and consumer do
  // not false-share.
  alignas(64) std::atomic<std::size_t> head_{0};
  alignas(64) std::atomic<std::size_t> tail_{0};
  const std::size_t mask_;
  std::vector<T> slots_;
};

}  // namespace itree::net
