// Shared flag plumbing for the bench binaries: --threads N and
// --json <path>.
//
// The harness strips the two flags from argv (so a bench's own flag
// parsing sees only the rest), applies the thread count to the
// process-wide pool, starts the wall clock, and on finish()
// writes {bench, threads, host, wall_seconds, peak_rss_bytes, metrics,
// digests} to the JSON path — the BENCH_*.json perf-trajectory format
// that accumulates across PRs. `host` names the machine and build
// (probe_host()). Benches that drive an event stream call
// record_events(); finish() then also derives reward_events_per_sec.
#pragma once

#include <sys/resource.h>
#include <sys/utsname.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "util/args.h"
#include "util/bench_json.h"
#include "util/parallel.h"

namespace itree {

class BenchHarness {
 public:
  /// Parses and removes --threads/--json (both `--flag value` and
  /// `--flag=value` forms) from argv, leaving other flags in place. A
  /// missing value, or a --threads outside [0, kMaxThreadCount], exits
  /// 2 with the message the network tools give for a bad flag.
  BenchHarness(const std::string& name, int* argc, char** argv)
      : json_(name) {
    ArgParser args;
    args.add_flag("--threads", "pool threads (0 = hardware concurrency)");
    args.add_flag("--json", "write the BENCH_*.json record here");
    try {
      if (!args.take(argc, argv)) {
        throw FlagError(args.error());
      }
      threads_ = static_cast<std::size_t>(
          args.get_int_in("--threads", 0, 0, kMaxThreadCount));
    } catch (const FlagError& error) {
      std::cerr << name << ": " << error.what() << '\n';
      std::exit(2);
    }
    json_path_ = args.get_or("--json", "");
    set_thread_count(threads_);  // 0 = hardware concurrency
    json_.set_threads(thread_count());
    json_.set_host(probe_host());
    start_ = monotonic_seconds();
  }

  /// The machine and build this bench runs on. Reads only
  /// /proc/cpuinfo (one "processor" entry per online CPU, and the first
  /// "model name") and uname(); the build type and git revision are the
  /// ones the build tree was configured with (CMakeLists.txt).
  static BenchHost probe_host() {
    BenchHost host;
    host.allowed_cpus = hardware_thread_count();
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
      if (line.rfind("processor", 0) == 0) {
        ++host.nproc;
      } else if (host.cpu_model.empty() && line.rfind("model name", 0) == 0) {
        const std::size_t colon = line.find(':');
        const std::size_t value =
            colon == std::string::npos
                ? colon
                : line.find_first_not_of(" \t", colon + 1);
        if (value != std::string::npos) {
          host.cpu_model = line.substr(value);
        }
      }
    }
    if (host.cpu_model.empty()) {
      host.cpu_model = "unknown";
    }
    struct utsname name {};
    host.kernel_release = ::uname(&name) == 0 ? name.release : "unknown";
    host.build_type = ITREE_BUILD_TYPE;
    host.git_revision = ITREE_GIT_REVISION;
    return host;
  }

  BenchJson& json() { return json_; }

  /// Counts reward-path events (joins / purchases) the bench pushed
  /// through a service; finish() derives reward_events_per_sec. Pass
  /// the measured duration when the bench also does non-event work
  /// (e.g. a batch comparator), so the rate reflects only event time;
  /// with seconds = 0 the total wall time is used.
  void record_events(std::uint64_t count, double seconds = 0.0) {
    events_ += count;
    event_seconds_ += seconds;
  }

  /// Peak resident set of this process in bytes (Linux ru_maxrss is
  /// reported in KiB); 0 when the kernel refuses the query.
  static double peak_rss_bytes() {
    struct rusage usage {};
    if (::getrusage(RUSAGE_SELF, &usage) != 0) {
      return 0.0;
    }
    return static_cast<double>(usage.ru_maxrss) * 1024.0;
  }

  /// Records total wall time, peak RSS, and event throughput (when
  /// record_events was used), then writes the JSON file when --json was
  /// given. Returns the process exit code.
  int finish() {
    const double wall = monotonic_seconds() - start_;
    json_.add_metric("wall_seconds", wall);
    json_.add_metric("peak_rss_bytes", peak_rss_bytes());
    const double event_time = event_seconds_ > 0.0 ? event_seconds_ : wall;
    if (events_ > 0 && event_time > 0.0) {
      json_.add_metric("reward_events_per_sec",
                       static_cast<double>(events_) / event_time);
    }
    if (!json_path_.empty() && !json_.write(json_path_)) {
      std::cerr << "cannot write " << json_path_ << '\n';
      return 1;
    }
    return 0;
  }

 private:
  BenchJson json_;
  std::string json_path_;
  std::size_t threads_ = 0;
  double start_ = 0.0;
  std::uint64_t events_ = 0;
  double event_seconds_ = 0.0;
};

}  // namespace itree
