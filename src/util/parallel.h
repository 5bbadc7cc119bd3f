// Deterministic work-stealing parallel execution layer.
//
// The library's hot paths (property matrix cells, Sybil attack-config
// enumeration, corpus generation, simulation batches) are all
// index-addressed: task i depends only on the options and on i, never on
// the order tasks run in. This module provides the matching primitives:
//
//   * ThreadPool — a work-stealing pool (per-slot deques, LIFO pop of
//     one's own queue, FIFO steal of others'). One process-wide instance,
//     sized via set_thread_count() / the --threads CLI flag.
//   * parallel_for / parallel_map — run body(i) for i in [0, count).
//     The calling thread participates; exceptions propagate to the
//     caller (the first one thrown, remaining chunks are cancelled).
//   * ChunkTiming — optional lightweight per-chunk wall-time capture for
//     the benches' imbalance diagnostics.
//
// Determinism contract: parallel_for/parallel_map guarantee body(i) runs
// exactly once and results land in slot i. Callers that need randomness
// derive a per-index substream via Rng::fork(i) (see util/rng.h); under
// that discipline results are bit-identical at every thread count,
// which parallel_test.cpp asserts for the matrix and the attack search.
//
// Nested calls: a parallel_for issued from inside a pool worker runs
// inline (serially) on that worker — nesting is safe but does not add
// parallelism.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace itree {

/// The most threads set_thread_count() accepts.
inline constexpr std::size_t kMaxThreadCount = 1024;

/// Threads the hardware supports, in [1, kMaxThreadCount].
std::size_t hardware_thread_count();

/// Sets the process-wide thread count (callers + pool workers). Resizes
/// the pool; must not be called concurrently with running parallel work.
/// n == 0 means hardware_thread_count(). Throws std::invalid_argument,
/// leaving the pool as it was, when n > kMaxThreadCount.
void set_thread_count(std::size_t n);

/// The currently configured thread count (>= 1).
std::size_t thread_count();

/// Wall time of one executed chunk, for imbalance diagnostics.
struct ChunkTiming {
  std::size_t first_index = 0;  ///< first loop index of the chunk
  std::size_t count = 0;        ///< indices in the chunk
  double seconds = 0.0;         ///< wall time spent executing the chunk
  unsigned worker = 0;          ///< executing slot (0 = calling thread)
};

struct ParallelOptions {
  /// Indices per chunk; 0 picks count / (threads * 8), at least 1.
  std::size_t grain = 0;
  /// When non-null, receives one entry per chunk (chunk order, which is
  /// thread-count independent).
  std::vector<ChunkTiming>* timings = nullptr;
};

/// Runs body(i) for every i in [0, count) across the pool. Blocks until
/// all indices ran (or one threw; the first exception is rethrown).
void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& body,
                  const ParallelOptions& options = {});

/// Maps fn over [0, count) into a vector with results[i] == fn(i).
/// T must be default-constructible and movable.
template <typename T, typename Fn>
std::vector<T> parallel_map(std::size_t count, Fn&& fn,
                            const ParallelOptions& options = {}) {
  std::vector<T> results(count);
  parallel_for(
      count, [&](std::size_t i) { results[i] = fn(i); }, options);
  return results;
}

}  // namespace itree
