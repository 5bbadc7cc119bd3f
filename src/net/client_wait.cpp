// Client::read_response_until, the one bounded read of the client. It
// has its own translation unit so that only programs that wait on a
// deadline (the load drivers) link it: the daemons, which link the
// client for replication, keep exactly the blocking read path.
#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "net/client.h"
#include "util/bench_json.h"

namespace itree::net {

std::optional<Response> Client::read_response_until(double deadline) {
  // Buffered bytes are read to the end of their frame without a
  // deadline: the server writes whole frames, so the rest is already on
  // its way.
  while (decoder_.buffered() == 0) {
    const double wait = std::max(0.0, deadline - monotonic_seconds());
    const timespec timeout{
        static_cast<time_t>(wait),
        static_cast<long>((wait - std::floor(wait)) * 1e9)};
    pollfd readable{fd_, POLLIN, 0};
    const int ready = ::ppoll(&readable, 1, &timeout, nullptr);
    if (ready > 0) {
      break;
    }
    if (ready == 0) {
      return std::nullopt;
    }
    if (errno != EINTR) {
      throw std::runtime_error(std::string("poll: ") + std::strerror(errno));
    }
  }
  return read_response();
}

}  // namespace itree::net
