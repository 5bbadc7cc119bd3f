#include "util/bench_json.h"

#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>

namespace itree {

namespace {

/// JSON string escaping for the small label/name payloads benches emit.
std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  std::ostringstream out;
  out.precision(12);
  out << value;
  return out.str();
}

}  // namespace

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    hash ^= static_cast<std::uint64_t>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string digest_hex(std::uint64_t digest) {
  static const char* kHex = "0123456789abcdef";
  std::string out = "0x";
  for (int shift = 60; shift >= 0; shift -= 4) {
    out += kHex[(digest >> shift) & 0xf];
  }
  return out;
}

BenchJson::BenchJson(std::string bench_name) : bench_(std::move(bench_name)) {}

void BenchJson::add_metric(const std::string& name, double value) {
  metrics_.emplace_back(name, value);
}

void BenchJson::add_digest(const std::string& name,
                           const std::string& rendered) {
  digests_.emplace_back(name, digest_hex(fnv1a64(rendered)));
}

std::string BenchJson::to_string() const {
  std::ostringstream out;
  out << "{\n  \"bench\": \"" << json_escape(bench_) << "\",\n"
      << "  \"threads\": " << threads_ << ",\n"
      << "  \"host\": {\"nproc\": " << host_.nproc
      << ", \"allowed_cpus\": " << host_.allowed_cpus
      << ", \"cpu_model\": \"" << json_escape(host_.cpu_model)
      << "\", \"kernel_release\": \"" << json_escape(host_.kernel_release)
      << "\", \"build_type\": \"" << json_escape(host_.build_type)
      << "\", \"git_revision\": \"" << json_escape(host_.git_revision)
      << "\"},\n  \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "    \""
        << json_escape(metrics_[i].first)
        << "\": " << json_number(metrics_[i].second);
  }
  out << (metrics_.empty() ? "}" : "\n  }") << ",\n  \"digests\": {";
  for (std::size_t i = 0; i < digests_.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "    \""
        << json_escape(digests_[i].first) << "\": \"" << digests_[i].second
        << "\"";
  }
  out << (digests_.empty() ? "}" : "\n  }") << "\n}\n";
  return out.str();
}

bool BenchJson::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << to_string();
  return static_cast<bool>(out);
}

double monotonic_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace itree
