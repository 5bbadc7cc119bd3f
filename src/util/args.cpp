#include "util/args.h"

#include <algorithm>
#include <sstream>

#include "util/check.h"

namespace itree {
namespace {

/// The whole of `text` as an integer, or nullopt.
std::optional<std::int64_t> parse_integer(const std::string& text) {
  std::size_t consumed = 0;
  std::int64_t parsed = 0;
  try {
    parsed = std::stoll(text, &consumed);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  if (consumed != text.size()) {
    return std::nullopt;
  }
  return parsed;
}

}  // namespace

void ArgParser::add_flag(const std::string& name, const std::string& help,
                         bool expects_value) {
  require(name.rfind("--", 0) == 0, "ArgParser: flags must start with --");
  flags_[name] = Flag{help, expects_value};
}

bool ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      positional_.push_back(std::move(token));
      continue;
    }
    std::string name = token;
    std::optional<std::string> inline_value;
    const std::size_t equals = token.find('=');
    if (equals != std::string::npos) {
      name = token.substr(0, equals);
      inline_value = token.substr(equals + 1);
    }
    const auto it = flags_.find(name);
    if (it == flags_.end()) {
      error_ = "unknown flag: " + name;
      return false;
    }
    if (!it->second.expects_value) {
      if (inline_value) {
        error_ = "flag " + name + " does not take a value";
        return false;
      }
      values_[name] = "true";
      continue;
    }
    if (inline_value) {
      values_[name] = *inline_value;
      continue;
    }
    if (i + 1 >= argc) {
      error_ = "flag " + name + " expects a value";
      return false;
    }
    values_[name] = argv[++i];
  }
  return true;
}

bool ArgParser::take(int* argc, char** argv) {
  int kept = std::min(*argc, 1);
  for (int i = 1; i < *argc; ++i) {
    const std::string token = argv[i];
    const std::size_t equals = token.find('=');
    const std::string name = token.substr(0, equals);
    const auto it = flags_.find(name);
    if (token.rfind("--", 0) != 0 || it == flags_.end()) {
      argv[kept++] = argv[i];
      continue;
    }
    if (!it->second.expects_value) {
      values_[name] = "true";
    } else if (equals != std::string::npos) {
      values_[name] = token.substr(equals + 1);
    } else if (i + 1 < *argc) {
      values_[name] = argv[++i];
    } else {
      error_ = "flag " + name + " expects a value";
      return false;
    }
  }
  *argc = kept;
  return true;
}

bool ArgParser::has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::optional<std::string> ArgParser::get(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::string ArgParser::get_or(const std::string& name,
                              const std::string& fallback) const {
  return get(name).value_or(fallback);
}

double ArgParser::get_double_or(const std::string& name,
                                double fallback) const {
  const auto value = get(name);
  if (!value) {
    return fallback;
  }
  std::size_t consumed = 0;
  double parsed = fallback;
  try {
    parsed = std::stod(*value, &consumed);
  } catch (const std::exception&) {
    consumed = 0;
  }
  if (consumed != value->size() || value->empty()) {
    throw FlagError(name + ": expected a number, got '" + *value + "'");
  }
  return parsed;
}

std::int64_t ArgParser::get_int_or(const std::string& name,
                                   std::int64_t fallback) const {
  const auto value = get(name);
  if (!value) {
    return fallback;
  }
  const std::optional<std::int64_t> parsed = parse_integer(*value);
  if (!parsed) {
    throw FlagError(name + ": expected an integer, got '" + *value + "'");
  }
  return *parsed;
}

std::int64_t ArgParser::get_int_in(const std::string& name,
                                   std::int64_t fallback, std::int64_t lo,
                                   std::int64_t hi) const {
  const auto value = get(name);
  if (!value) {
    return fallback;
  }
  const std::optional<std::int64_t> parsed = parse_integer(*value);
  if (!parsed || *parsed < lo || *parsed > hi) {
    throw FlagError(name + ": expected an integer in [" + std::to_string(lo) +
                    ", " + std::to_string(hi) + "], got '" + *value + "'");
  }
  return *parsed;
}

std::string ArgParser::help(const std::string& program_summary) const {
  std::ostringstream out;
  out << program_summary << "\n\nFlags:\n";
  for (const auto& [name, flag] : flags_) {
    out << "  " << name << (flag.expects_value ? " <value>" : "") << "\n    "
        << flag.help << '\n';
  }
  return out.str();
}

}  // namespace itree
