// "host:port" endpoints, as given on command lines and in RouterConfig.
#pragma once

#include <charconv>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace itree::net {

struct Endpoint {
  std::string host;
  std::uint16_t port = 0;
};

/// Splits "host:port" at the last colon. The host must be non-empty and
/// the port all decimal digits in 1..65535; anything else throws
/// std::invalid_argument naming the input.
inline Endpoint parse_endpoint(std::string_view text) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string_view::npos || colon == 0 ||
      colon + 1 == text.size()) {
    throw std::invalid_argument("expected HOST:PORT, got '" +
                                std::string(text) + "'");
  }
  const std::string_view digits = text.substr(colon + 1);
  unsigned port = 0;
  const auto [end, error] =
      std::from_chars(digits.data(), digits.data() + digits.size(), port);
  if (error != std::errc() || end != digits.data() + digits.size() ||
      port == 0 || port > 65535) {
    throw std::invalid_argument("bad port in '" + std::string(text) + "'");
  }
  return {std::string(text.substr(0, colon)),
          static_cast<std::uint16_t>(port)};
}

}  // namespace itree::net
