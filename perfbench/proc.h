// Child daemons of the benchmark, and what /proc says about them.
//
// Child spawns one daemon with its stdout on a pipe, waits for the
// daemon's "listening on HOST:PORT" readiness line, and on stop()
// collects the rest of stdout (the daemon's one-line JSON exit report).
// A Child that is destroyed without stop() SIGKILLs and reaps its
// process, so no daemon outlives the load generator's scope on any path.
//
// sample_proc() reads a process's counters from outside: CPU time
// (per-thread schedstat, nanosecond resolution), context switches,
// read/write syscall counts and peak resident set size. pin_process()
// moves every thread of a process to one CPU.
#pragma once

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

extern char** environ;

namespace perfbench {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Child {
 public:
  explicit Child(const std::vector<std::string>& argv) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) {
      throw std::runtime_error("pipe2 failed");
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    std::vector<char*> args;
    for (const std::string& arg : argv) {
      args.push_back(const_cast<char*>(arg.c_str()));
    }
    args.push_back(nullptr);
    const int rc = ::posix_spawn(&pid_, args[0], &actions, nullptr,
                                 args.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    if (rc != 0) {
      ::close(fds[0]);
      pid_ = -1;
      throw std::runtime_error("cannot spawn " + argv[0]);
    }
    out_ = fds[0];
  }

  ~Child() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (out_ >= 0) {
      ::close(out_);
    }
  }

  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  pid_t pid() const { return pid_; }

  /// Blocks until the daemon prints its readiness line; returns the
  /// port it names. Throws if the daemon exits or stays silent.
  std::uint16_t wait_listening(double timeout_s) {
    const double deadline = now_s() + timeout_s;
    const std::string marker = "listening on ";
    for (;;) {
      const std::size_t at = output_.find(marker);
      if (at != std::string::npos) {
        const std::size_t eol = output_.find('\n', at);
        if (eol != std::string::npos) {
          const std::string endpoint =
              output_.substr(at + marker.size(), eol - at - marker.size());
          const std::size_t colon = endpoint.find(':');
          return static_cast<std::uint16_t>(
              std::atoi(endpoint.c_str() + colon + 1));
        }
      }
      if (!read_some(deadline - now_s())) {
        throw std::runtime_error("daemon exited or timed out before "
                                 "listening; output: " + output_);
      }
    }
  }

  /// Graceful stop: SIGTERM, read stdout to EOF, reap. SIGKILLs a
  /// daemon that has not exited by the timeout. Returns all stdout.
  std::string stop(double timeout_s) {
    if (pid_ <= 0) {
      return output_;
    }
    ::kill(pid_, SIGTERM);
    const double deadline = now_s() + timeout_s;
    while (now_s() < deadline && read_some(deadline - now_s())) {
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    }
    pid_ = -1;
    return output_;
  }

  /// SIGKILL and reap (a crash, as far as the data directory knows).
  void kill_now() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
  }

 private:
  /// Appends whatever stdout holds within `timeout_s`; false on EOF or
  /// timeout.
  bool read_some(double timeout_s) {
    if (timeout_s <= 0) {
      return false;
    }
    pollfd pfd{out_, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(timeout_s * 1000) + 1) <= 0) {
      return false;
    }
    char buffer[4096];
    const ssize_t got = ::read(out_, buffer, sizeof(buffer));
    if (got <= 0) {
      return false;
    }
    output_.append(buffer, static_cast<std::size_t>(got));
    return true;
  }

  pid_t pid_ = -1;
  int out_ = -1;
  std::string output_;
};

struct ProcSample {
  double cpu_s = 0.0;
  double ctx_switches = 0.0;
  double syscalls = 0.0;  ///< read-class plus write-class syscalls
  double hwm_mb = 0.0;    ///< VmHWM
};

inline std::string read_text(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Value after `key` in a "key: value" /proc text, 0 when absent.
inline double proc_field(const std::string& text, const std::string& key) {
  const std::size_t at = text.find(key);
  return at == std::string::npos
             ? 0.0
             : std::strtod(text.c_str() + at + key.size(), nullptr);
}

/// Pins every thread of `pid` (0: this process) to `cpu`. Threads that
/// exit meanwhile are skipped.
inline void pin_process(pid_t pid, int cpu) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  CPU_SET(cpu, &mask);
  const std::string base =
      "/proc/" + (pid == 0 ? std::string("self") : std::to_string(pid));
  std::error_code ec;
  for (const auto& task :
       std::filesystem::directory_iterator(base + "/task", ec)) {
    const pid_t tid = std::atoi(task.path().filename().c_str());
    ::sched_setaffinity(tid, sizeof(mask), &mask);
  }
}

/// The CPUs this process may run on, in order.
inline std::vector<int> allowed_cpus() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &mask)) {
        cpus.push_back(cpu);
      }
    }
  }
  if (cpus.empty()) {
    throw std::runtime_error("no CPU in this process's affinity mask");
  }
  return cpus;
}

inline ProcSample sample_proc(pid_t pid) {
  ProcSample sample;
  const std::string base = "/proc/" + std::to_string(pid);
  std::error_code ec;
  for (const auto& task :
       std::filesystem::directory_iterator(base + "/task", ec)) {
    const std::string dir = task.path().string();
    sample.cpu_s += std::strtod(read_text(dir + "/schedstat").c_str(),
                                nullptr) * 1e-9;
    const std::string status = read_text(dir + "/status");
    sample.ctx_switches += proc_field(status, "\nvoluntary_ctxt_switches:") +
                           proc_field(status, "nonvoluntary_ctxt_switches:");
  }
  const std::string io = read_text(base + "/io");
  sample.syscalls = proc_field(io, "syscr:") + proc_field(io, "syscw:");
  sample.hwm_mb = proc_field(read_text(base + "/status"), "VmHWM:") / 1024.0;
  return sample;
}

}  // namespace perfbench
