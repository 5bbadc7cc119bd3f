#include "util/strings.h"

#include <charconv>
#include <cstdio>
#include <sstream>

namespace itree {

std::string join(const std::vector<std::string>& parts,
                 const std::string& separator) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) {
      out += separator;
    }
    out += parts[i];
  }
  return out;
}

std::string compact_number(double value, int max_decimals) {
  std::ostringstream stream;
  stream.precision(max_decimals);
  stream << std::fixed << value;
  std::string text = stream.str();
  if (text.find('.') != std::string::npos) {
    while (!text.empty() && text.back() == '0') {
      text.pop_back();
    }
    if (!text.empty() && text.back() == '.') {
      text.pop_back();
    }
  }
  return text;
}

std::string shortest_number(double value) {
  char buffer[32];
  const std::to_chars_result result =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

std::string yes_no(bool value) { return value ? "yes" : "no"; }

std::string hex_doubles(const std::vector<double>& values) {
  std::string out;
  out.reserve(values.size() * 24);
  char buffer[32];
  for (const double value : values) {
    std::snprintf(buffer, sizeof(buffer), "%a,", value);
    out += buffer;
  }
  return out;
}

}  // namespace itree
