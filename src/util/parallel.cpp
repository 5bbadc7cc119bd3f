#include "util/parallel.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "util/check.h"

namespace itree {

namespace {

/// True on pool worker threads; nested parallel_for runs inline there.
thread_local bool tls_pool_worker = false;
/// Slot id of the current thread for ChunkTiming (0 = a calling thread).
thread_local unsigned tls_slot = 0;

using Task = std::function<void()>;

/// One parallel_for invocation in flight.
struct Batch {
  explicit Batch(std::size_t chunks) : remaining(chunks) {}
  std::atomic<std::size_t> remaining;
  std::atomic<bool> cancelled{false};
  std::mutex mutex;  ///< protects error; done waits on it
  std::exception_ptr error;
  std::condition_variable done;
};

/// Work-stealing pool: total_threads() = spawned workers + the caller.
class ThreadPool {
 public:
  static ThreadPool& instance() {
    static ThreadPool pool(hardware_thread_count());
    return pool;
  }

  ~ThreadPool() { shutdown(); }

  std::size_t total_threads() const { return worker_count_ + 1; }

  /// Joins all workers and respawns total - 1. Must only be called while
  /// no parallel work is in flight.
  void resize(std::size_t total) {
    require(total >= 1, "ThreadPool::resize: need at least one thread");
    if (total == total_threads()) {
      return;
    }
    shutdown();
    spawn(total - 1);
  }

  /// Runs chunk(c) for every c in [0, chunk_count) with the caller
  /// participating; rethrows the first chunk exception.
  void run_chunks(std::size_t chunk_count,
                  const std::function<void(std::size_t)>& chunk) {
    auto batch = std::make_shared<Batch>(chunk_count);
    {
      // Incremented before the pushes: a worker that pops a task must
      // never decrement queued_ below zero. Workers woken before their
      // task is visible simply re-scan (bounded spurious spin).
      std::lock_guard<std::mutex> lock(wake_mutex_);
      queued_ += chunk_count;
    }
    for (std::size_t c = 0; c < chunk_count; ++c) {
      push(c % slots_.size(), make_task(batch, chunk, c));
    }
    wake_cv_.notify_all();

    // Participate: drain whatever is runnable until our batch is done.
    while (batch->remaining.load() != 0) {
      Task task = try_pop(0);
      if (!task) {
        break;  // last chunks are executing on workers; wait below
      }
      task();
    }
    std::unique_lock<std::mutex> lock(batch->mutex);
    batch->done.wait(lock, [&] { return batch->remaining.load() == 0; });
    if (batch->error) {
      std::rethrow_exception(batch->error);
    }
  }

 private:
  struct Slot {
    std::mutex mutex;
    std::deque<Task> tasks;
  };

  explicit ThreadPool(std::size_t total) { spawn(total - 1); }

  static Task make_task(std::shared_ptr<Batch> batch,
                        const std::function<void(std::size_t)>& chunk,
                        std::size_t index) {
    // `chunk` is captured by reference: run_chunks blocks until every
    // task of the batch has finished, so the referent outlives the task.
    return [batch = std::move(batch), &chunk, index]() mutable {
      if (!batch->cancelled.load()) {
        try {
          chunk(index);
        } catch (...) {
          batch->cancelled.store(true);
          std::lock_guard<std::mutex> lock(batch->mutex);
          if (!batch->error) {
            batch->error = std::current_exception();
          }
        }
      }
      // Drop this task's reference before the batch can complete, so the
      // caller always holds the last one: the captured exception is then
      // released on the thread that rethrew it, never on a worker racing
      // the caller's handler. The decrement happens under the mutex, so
      // the caller cannot see zero, return and free the batch while this
      // task still touches it; the unlock is the task's last access.
      Batch* const raw = batch.get();
      batch.reset();
      std::lock_guard<std::mutex> lock(raw->mutex);
      if (raw->remaining.fetch_sub(1) == 1) {
        raw->done.notify_all();
      }
    };
  }

  void spawn(std::size_t workers) {
    stop_ = false;
    slots_.clear();
    // Slot 0 belongs to calling threads; workers own slots 1..workers.
    for (std::size_t s = 0; s < workers + 1; ++s) {
      slots_.push_back(std::make_unique<Slot>());
    }
    try {
      threads_.reserve(workers);
      for (std::size_t w = 0; w < workers; ++w) {
        threads_.emplace_back([this, slot = w + 1] { worker_main(slot); });
      }
    } catch (...) {
      // Out of threads part-way: leave a consistent caller-only pool.
      shutdown();
      slots_.resize(1);
      throw;
    }
    worker_count_ = workers;
  }

  void shutdown() {
    {
      std::lock_guard<std::mutex> lock(wake_mutex_);
      stop_ = true;
    }
    wake_cv_.notify_all();
    for (std::thread& thread : threads_) {
      thread.join();
    }
    threads_.clear();
    worker_count_ = 0;
  }

  void push(std::size_t slot, Task task) {
    std::lock_guard<std::mutex> lock(slots_[slot]->mutex);
    slots_[slot]->tasks.push_back(std::move(task));
  }

  /// Pops from the back of `home`, else steals from the front of the
  /// other slots (classic work-stealing order).
  Task try_pop(std::size_t home) {
    {
      Slot& slot = *slots_[home];
      std::lock_guard<std::mutex> lock(slot.mutex);
      if (!slot.tasks.empty()) {
        Task task = std::move(slot.tasks.back());
        slot.tasks.pop_back();
        note_dequeued();
        return task;
      }
    }
    for (std::size_t offset = 1; offset < slots_.size(); ++offset) {
      Slot& slot = *slots_[(home + offset) % slots_.size()];
      std::lock_guard<std::mutex> lock(slot.mutex);
      if (!slot.tasks.empty()) {
        Task task = std::move(slot.tasks.front());
        slot.tasks.pop_front();
        note_dequeued();
        return task;
      }
    }
    return Task{};
  }

  void note_dequeued() {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    --queued_;
  }

  void worker_main(std::size_t slot) {
    tls_pool_worker = true;
    tls_slot = static_cast<unsigned>(slot);
    while (true) {
      Task task = try_pop(slot);
      if (task) {
        task();
        continue;
      }
      std::unique_lock<std::mutex> lock(wake_mutex_);
      wake_cv_.wait(lock, [&] { return stop_ || queued_ > 0; });
      if (stop_) {
        return;
      }
    }
  }

  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<std::thread> threads_;
  std::size_t worker_count_ = 0;

  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  std::size_t queued_ = 0;  ///< tasks enqueued, guarded by wake_mutex_
  bool stop_ = false;       ///< guarded by wake_mutex_
};

/// Runs [first, last) of the loop, recording one ChunkTiming if asked.
void run_chunk_range(const std::function<void(std::size_t)>& body,
                     std::size_t first, std::size_t last,
                     std::vector<ChunkTiming>* timings,
                     std::size_t chunk_index) {
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = first; i < last; ++i) {
    body(i);
  }
  if (timings != nullptr) {
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    // Each chunk writes only its own pre-sized slot: no synchronization.
    (*timings)[chunk_index] = ChunkTiming{
        .first_index = first,
        .count = last - first,
        .seconds = elapsed.count(),
        .worker = tls_slot,
    };
  }
}

}  // namespace

std::size_t hardware_thread_count() {
  // The CPUs this thread may run on (cpuset, taskset), not the machine's.
  cpu_set_t allowed;
  const std::size_t n =
      ::sched_getaffinity(0, sizeof(allowed), &allowed) == 0
          ? static_cast<std::size_t>(CPU_COUNT(&allowed))
          : std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(n, 1, kMaxThreadCount);
}

void set_thread_count(std::size_t n) {
  if (n > kMaxThreadCount) {
    throw std::invalid_argument("thread count " + std::to_string(n) +
                                " exceeds the cap of " +
                                std::to_string(kMaxThreadCount));
  }
  ThreadPool::instance().resize(n == 0 ? hardware_thread_count() : n);
}

std::size_t thread_count() { return ThreadPool::instance().total_threads(); }

void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& body,
                  const ParallelOptions& options) {
  if (count == 0) {
    if (options.timings != nullptr) {
      options.timings->clear();
    }
    return;
  }
  const std::size_t threads = thread_count();
  const std::size_t grain =
      options.grain > 0 ? options.grain
                        : std::max<std::size_t>(1, count / (threads * 8));
  const std::size_t chunk_count = (count + grain - 1) / grain;
  if (options.timings != nullptr) {
    options.timings->assign(chunk_count, ChunkTiming{});
  }
  auto run_chunk = [&](std::size_t c) {
    const std::size_t first = c * grain;
    const std::size_t last = std::min(count, first + grain);
    run_chunk_range(body, first, last, options.timings, c);
  };
  // Serial paths: single thread, a single chunk, or a nested call from
  // inside a pool worker (which must not block on the pool).
  if (threads == 1 || chunk_count == 1 || tls_pool_worker) {
    for (std::size_t c = 0; c < chunk_count; ++c) {
      run_chunk(c);
    }
    return;
  }
  ThreadPool::instance().run_chunks(chunk_count, run_chunk);
}

}  // namespace itree
