// Shard-worker supervisor: fork/exec one `itree-served` per shard and
// keep the fleet alive.
//
// `itree-router --spawn N` owns its workers through this class instead
// of leaving process management to deployment scripts:
//   * start() spawns every worker with `--port 0` (kernel-assigned),
//     its own `--data-dir <dir>/shard_<i>` and stdout/stderr redirected
//     to `<dir>/shard_<i>.log`, then scrapes the worker's readiness
//     line ("itree-served: listening on host:port") from the log to
//     learn the bound port — the same discipline the smoke scripts use.
//   * monitor() runs a waitpid loop on a background thread. A crashed
//     worker is respawned on the SAME port (the server's listeners
//     share their port, which makes the rebind safe) after a bounded backoff (net/retry.h), recovers its
//     state from its WAL, and once its readiness line reappears the
//     restart callback fires — the router uses it to short-circuit its
//     reconnect backoff (Router::note_shard_restarted) and to report
//     per-shard restart counts in SHARD_MAP.
//   * stop() SIGTERMs every worker (graceful drain + final snapshot),
//     escalating to SIGKILL after a deadline.
//
// Endpoints are fixed for the supervisor's lifetime: the router's
// static campaign -> shard map stays valid across any number of worker
// restarts.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/types.h>

namespace itree::router {

struct SupervisorConfig {
  /// Path to the worker binary (itree-served or a compatible daemon).
  std::string worker_bin;
  std::size_t shards = 1;
  /// Bind address passed to every worker as --host.
  std::string host = "127.0.0.1";
  /// Root directory: shard i gets `<data_dir>/shard_<i>` as its
  /// --data-dir and `<data_dir>/shard_<i>.log` as its log file.
  std::string data_dir;
  /// Extra argv passed to every worker verbatim (mechanism, campaign
  /// count, fsync policy, reactors...). --host/--port/--data-dir are
  /// appended by the supervisor and must not appear here.
  std::vector<std::string> worker_args;
  /// How long to wait for a worker's readiness line before giving up.
  double spawn_timeout_seconds = 30.0;
};

class Supervisor {
 public:
  explicit Supervisor(SupervisorConfig config);

  /// Joins the monitor thread and kills any still-running workers.
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Spawns every worker and waits until each one is listening. Throws
  /// std::runtime_error when a worker cannot be spawned or never
  /// becomes ready (any already-spawned workers are killed).
  void start();

  /// Starts the waitpid monitor thread. `on_restart(shard)` fires from
  /// that thread after a crashed worker was respawned and is listening
  /// again. Call after start().
  void monitor(std::function<void(std::uint32_t)> on_restart);

  /// Graceful stop: SIGTERM every worker, wait up to
  /// `deadline_seconds`, SIGKILL stragglers, join the monitor thread.
  /// Idempotent.
  void stop(double deadline_seconds = 10.0);

  /// Worker endpoints ("host:port"), valid after start() and stable
  /// across restarts. Index = shard.
  const std::vector<std::string>& endpoints() const { return endpoints_; }

  /// Times worker `shard` was respawned after a crash (thread-safe).
  std::uint64_t restarts(std::uint32_t shard) const {
    return restarts_[shard].load(std::memory_order_relaxed);
  }

 private:
  struct Worker {
    pid_t pid = -1;
    std::uint16_t port = 0;  ///< 0 until the first readiness scrape
    bool running = false;
  };

  std::string shard_data_dir(std::size_t shard) const;
  std::string shard_log_path(std::size_t shard) const;

  /// fork/execs worker `shard` binding `port` (0 = kernel-assigned),
  /// truncating its log. Returns the child pid, -1 on failure.
  pid_t spawn(std::size_t shard, std::uint16_t port);

  /// Polls worker `shard`'s log for the readiness line and stores the
  /// scraped port. False on timeout or early child exit.
  bool wait_ready(std::size_t shard, double timeout_seconds);

  void monitor_loop();

  SupervisorConfig config_;
  std::vector<Worker> workers_;
  std::vector<std::string> endpoints_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> restarts_;
  std::function<void(std::uint32_t)> on_restart_;
  std::thread monitor_thread_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;
};

}  // namespace itree::router
