#include "util/io.h"

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

namespace itree::io {

IoStatus recv_some(int fd, char* data, std::size_t size,
                   std::size_t* received) {
  while (true) {
    const ssize_t n = ::recv(fd, data, size, 0);
    if (n > 0) {
      *received = static_cast<std::size_t>(n);
      return IoStatus::kProgress;
    }
    if (n == 0) {
      return IoStatus::kEof;
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return IoStatus::kWouldBlock;
    }
    return IoStatus::kError;
  }
}

IoStatus send_some(int fd, const char* data, std::size_t size,
                   std::size_t* sent) {
  while (true) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n >= 0) {
      *sent = static_cast<std::size_t>(n);
      return IoStatus::kProgress;
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return IoStatus::kWouldBlock;
    }
    return IoStatus::kError;
  }
}

bool send_all(int fd, const char* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    std::size_t n = 0;
    // A blocking socket never reports kWouldBlock; treat it as a hard
    // error if it somehow does (mis-flagged fd).
    if (send_some(fd, data + done, size - done, &n) != IoStatus::kProgress) {
      return false;
    }
    done += n;
  }
  return true;
}

bool write_all(int fd, const void* data, std::size_t size) {
  const char* bytes = static_cast<const char*>(data);
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, bytes + done, size - done);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

bool read_exact(int fd, void* data, std::size_t size) {
  char* bytes = static_cast<char*>(data);
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::read(fd, bytes + done, size - done);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    if (n == 0) {
      errno = 0;  // clean EOF, distinguishable from a hard error
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

bool fsync_fd(int fd) {
  while (::fsync(fd) != 0) {
    if (errno != EINTR) {
      return false;
    }
  }
  return true;
}

bool fsync_path(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return false;
  }
  const bool ok = fsync_fd(fd);
  ::close(fd);
  return ok;
}

}  // namespace itree::io
