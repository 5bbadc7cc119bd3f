// Minimal command-line flag parsing for the CLI tool and examples.
//
// Supports `--flag value`, `--flag=value` and boolean `--flag`;
// positional arguments are collected in order. Unknown flags are errors
// so typos fail loudly.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace itree {

/// A flag value that does not parse or is out of range. The network
/// tools catch it to exit 2, like an unknown flag.
class FlagError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

class ArgParser {
 public:
  /// Declares a flag with a help line; `expects_value` false makes it a
  /// boolean switch.
  void add_flag(const std::string& name, const std::string& help,
                bool expects_value = true);

  /// Parses argv. Returns false (and fills error()) on unknown flags or
  /// missing values.
  bool parse(int argc, const char* const* argv);

  /// Parses only the declared flags out of argv and removes them,
  /// leaving argv[0] and every other argument in order for a second
  /// parser (the bench harness takes --threads/--json this way).
  /// Returns false (and fills error()) when a declared flag lacks its
  /// value.
  bool take(int* argc, char** argv);

  bool has(const std::string& name) const;
  std::optional<std::string> get(const std::string& name) const;
  std::string get_or(const std::string& name,
                     const std::string& fallback) const;
  /// Typed accessors: `fallback` when the flag is absent; a value that
  /// does not parse throws FlagError naming the flag.
  double get_double_or(const std::string& name, double fallback) const;
  std::int64_t get_int_or(const std::string& name,
                          std::int64_t fallback) const;
  /// get_int_or restricted to [lo, hi]: a value outside it throws
  /// FlagError ("--port: expected an integer in [0, 65535], got
  /// '70000'"). The fallback is not range-checked.
  std::int64_t get_int_in(const std::string& name, std::int64_t fallback,
                          std::int64_t lo, std::int64_t hi) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& error() const { return error_; }

  /// Usage text from the declared flags.
  std::string help(const std::string& program_summary) const;

 private:
  struct Flag {
    std::string help;
    bool expects_value = true;
  };
  std::map<std::string, Flag> flags_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  std::string error_;
};

}  // namespace itree
