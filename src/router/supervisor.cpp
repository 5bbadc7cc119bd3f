#include "router/supervisor.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "net/endpoint.h"
#include "net/retry.h"
#include "util/bench_json.h"  // monotonic_seconds

namespace itree::router {

namespace {

/// The worker's readiness line; printed (flushed) before its event loop
/// starts, after its listener is bound — so the port is connectable the
/// moment the line appears.
constexpr const char kReadinessMarker[] = "listening on ";

/// Scans `path` for the LAST readiness line and parses its port.
/// Returns 0 when no complete line is present yet.
std::uint16_t scrape_port(const std::string& path) {
  std::ifstream in(path);
  std::uint16_t port = 0;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t at = line.find(kReadinessMarker);
    if (at == std::string::npos) {
      continue;
    }
    const std::size_t begin = at + sizeof(kReadinessMarker) - 1;
    try {
      port = net::parse_endpoint(std::string_view(line).substr(
                                     begin, line.find(' ', begin) - begin))
                 .port;
    } catch (const std::invalid_argument&) {
      // Not (yet) a whole "host:port": keep the last complete line's.
    }
  }
  return port;
}

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

}  // namespace

Supervisor::Supervisor(SupervisorConfig config)
    : config_(std::move(config)) {
  if (config_.shards == 0) {
    throw std::invalid_argument("Supervisor: need at least one shard");
  }
  if (config_.worker_bin.empty()) {
    throw std::invalid_argument("Supervisor: worker_bin is required");
  }
  if (config_.data_dir.empty()) {
    throw std::invalid_argument("Supervisor: data_dir is required");
  }
  workers_.resize(config_.shards);
  endpoints_.resize(config_.shards);
  restarts_ = std::make_unique<std::atomic<std::uint64_t>[]>(
      config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    restarts_[i].store(0, std::memory_order_relaxed);
  }
}

Supervisor::~Supervisor() { stop(0.5); }

std::string Supervisor::shard_data_dir(std::size_t shard) const {
  return config_.data_dir + "/shard_" + std::to_string(shard);
}

std::string Supervisor::shard_log_path(std::size_t shard) const {
  return config_.data_dir + "/shard_" + std::to_string(shard) + ".log";
}

pid_t Supervisor::spawn(std::size_t shard, std::uint16_t port) {
  // The log is truncated on every (re)spawn so the readiness scrape
  // always reads the line of the instance it just launched.
  const std::string log_path = shard_log_path(shard);
  const int log_fd = ::open(log_path.c_str(),
                            O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    return -1;
  }

  std::vector<std::string> argv_strings;
  argv_strings.push_back(config_.worker_bin);
  argv_strings.push_back("--host");
  argv_strings.push_back(config_.host);
  argv_strings.push_back("--port");
  argv_strings.push_back(std::to_string(port));
  argv_strings.push_back("--data-dir");
  argv_strings.push_back(shard_data_dir(shard));
  for (const std::string& arg : config_.worker_args) {
    argv_strings.push_back(arg);
  }
  std::vector<char*> argv;
  argv.reserve(argv_strings.size() + 1);
  for (std::string& arg : argv_strings) {
    argv.push_back(arg.data());
  }
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log_fd);
    return -1;
  }
  if (pid == 0) {
    // Child: worker output goes to the shard log (the parent scrapes
    // readiness from it); O_CLOEXEC on log_fd closes the original.
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(argv[0], argv.data());
    // exec failed; report into the log and die without running any
    // of the parent's atexit machinery.
    const char* msg = "supervisor: execv failed\n";
    [[maybe_unused]] const ssize_t n =
        ::write(STDERR_FILENO, msg, std::strlen(msg));
    ::_exit(127);
  }
  ::close(log_fd);
  return pid;
}

bool Supervisor::wait_ready(std::size_t shard, double timeout_seconds) {
  const double deadline = monotonic_seconds() + timeout_seconds;
  const std::string log_path = shard_log_path(shard);
  Worker& worker = workers_[shard];
  while (monotonic_seconds() < deadline) {
    int status = 0;
    if (::waitpid(worker.pid, &status, WNOHANG) == worker.pid) {
      worker.running = false;
      return false;  // died before becoming ready (bad flags, port...)
    }
    const std::uint16_t port = scrape_port(log_path);
    if (port != 0) {
      worker.port = port;
      endpoints_[shard] =
          config_.host + ":" + std::to_string(port);
      return true;
    }
    sleep_ms(10);
  }
  return false;
}

void Supervisor::start() {
  ::mkdir(config_.data_dir.c_str(), 0755);
  for (std::size_t shard = 0; shard < config_.shards; ++shard) {
    ::mkdir(shard_data_dir(shard).c_str(), 0755);
    Worker& worker = workers_[shard];
    // First spawn uses a kernel-assigned port (or the port recorded by
    // an earlier start() — not possible today, but harmless).
    worker.pid = spawn(shard, worker.port);
    worker.running = worker.pid > 0;
    if (!worker.running || !wait_ready(shard, config_.spawn_timeout_seconds)) {
      std::ostringstream what;
      what << "Supervisor: shard " << shard << " worker ("
           << config_.worker_bin << ") failed to become ready; see "
           << shard_log_path(shard);
      stop(0.5);
      throw std::runtime_error(what.str());
    }
  }
  started_ = true;
}

void Supervisor::monitor(std::function<void(std::uint32_t)> on_restart) {
  on_restart_ = std::move(on_restart);
  monitor_thread_ = std::thread([this] { monitor_loop(); });
}

void Supervisor::monitor_loop() {
  std::vector<net::Backoff> backoffs(
      config_.shards,
      net::Backoff(std::chrono::milliseconds(50),
                   std::chrono::milliseconds(2000)));
  while (!stopping_.load(std::memory_order_acquire)) {
    int status = 0;
    const pid_t pid = ::waitpid(-1, &status, WNOHANG);
    if (pid <= 0) {
      sleep_ms(20);
      continue;
    }
    std::size_t shard = config_.shards;
    for (std::size_t i = 0; i < config_.shards; ++i) {
      if (workers_[i].pid == pid) {
        shard = i;
        break;
      }
    }
    if (shard == config_.shards) {
      continue;  // not ours (can't happen: we only ever fork workers)
    }
    Worker& worker = workers_[shard];
    worker.running = false;
    if (stopping_.load(std::memory_order_acquire)) {
      break;
    }
    // Respawn on the SAME port so the router's static endpoint map
    // stays valid; the server's port-sharing listener makes the
    // rebind race-free against lingering sockets. The worker recovers
    // its campaigns from its WAL before its readiness line reappears.
    backoffs[shard].sleep_next();
    if (stopping_.load(std::memory_order_acquire)) {
      break;
    }
    worker.pid = spawn(shard, worker.port);
    worker.running = worker.pid > 0;
    if (!worker.running ||
        !wait_ready(shard, config_.spawn_timeout_seconds)) {
      // Leave it down; the next crash notification cannot arrive for a
      // dead pid, so retry from here on the aged backoff schedule by
      // synthesizing another pass: mark not running and loop (the
      // waitpid above will not find it, so respawn directly).
      while (!stopping_.load(std::memory_order_acquire) &&
             !worker.running) {
        backoffs[shard].sleep_next();
        worker.pid = spawn(shard, worker.port);
        worker.running = worker.pid > 0;
        if (worker.running &&
            !wait_ready(shard, config_.spawn_timeout_seconds)) {
          worker.running = false;
        }
      }
      if (!worker.running) {
        break;  // stopping
      }
    }
    backoffs[shard].reset();
    restarts_[shard].fetch_add(1, std::memory_order_relaxed);
    if (on_restart_) {
      on_restart_(static_cast<std::uint32_t>(shard));
    }
  }
}

void Supervisor::stop(double deadline_seconds) {
  stopping_.store(true, std::memory_order_release);
  if (monitor_thread_.joinable()) {
    monitor_thread_.join();
  }
  for (Worker& worker : workers_) {
    if (worker.running && worker.pid > 0) {
      ::kill(worker.pid, SIGTERM);
    }
  }
  const double deadline = monotonic_seconds() + deadline_seconds;
  for (Worker& worker : workers_) {
    if (!worker.running || worker.pid <= 0) {
      continue;
    }
    int status = 0;
    while (::waitpid(worker.pid, &status, WNOHANG) == 0) {
      if (monotonic_seconds() >= deadline) {
        ::kill(worker.pid, SIGKILL);
        ::waitpid(worker.pid, &status, 0);
        break;
      }
      sleep_ms(10);
    }
    worker.running = false;
  }
}

}  // namespace itree::router
