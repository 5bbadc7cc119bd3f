// Machine-readable bench output: the `--json <path>` harness flag.
//
// Every bench that supports it appends wall time, the configured thread
// count and result digests to one JSON object per run, so BENCH_*.json
// perf trajectories can accumulate across PRs and detect both slowdowns
// (wall_seconds) and behaviour changes (digests, which are
// thread-count-invariant under the determinism contract of
// util/parallel.h).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace itree {

/// FNV-1a 64-bit digest of a string (stable across platforms/runs).
std::uint64_t fnv1a64(const std::string& text);

/// Hex rendering of a digest ("0x" + 16 lowercase hex digits).
std::string digest_hex(std::uint64_t digest);

/// The machine and build a bench ran on: the record's "host" object,
/// so a number in a BENCH_*.json carries its hardware.
struct BenchHost {
  std::size_t nproc = 0;         ///< online CPUs
  std::size_t allowed_cpus = 0;  ///< CPUs this process may run on
  std::string cpu_model;         ///< /proc/cpuinfo "model name"
  std::string kernel_release;    ///< uname -r
  std::string build_type;        ///< CMAKE_BUILD_TYPE
  std::string git_revision;      ///< configured revision, or "unknown"
};

/// Collects metrics and digests for one bench run and writes them as a
/// single JSON object. Keys appear in insertion order.
class BenchJson {
 public:
  explicit BenchJson(std::string bench_name);

  void set_threads(std::size_t threads) { threads_ = threads; }
  void set_host(BenchHost host) { host_ = std::move(host); }
  void add_metric(const std::string& name, double value);
  /// Records the FNV-1a digest of `rendered` under `name`.
  void add_digest(const std::string& name, const std::string& rendered);

  /// Serializes the collected run to a JSON object string.
  std::string to_string() const;

  /// Writes to `path` (overwrites). Returns false on I/O failure.
  bool write(const std::string& path) const;

 private:
  std::string bench_;
  std::size_t threads_ = 1;
  BenchHost host_;
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<std::pair<std::string, std::string>> digests_;
};

/// Monotonic wall-clock seconds since an arbitrary epoch; benches use
/// differences of this for the wall_seconds metric.
double monotonic_seconds();

}  // namespace itree
