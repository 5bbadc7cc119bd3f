// Low-level POSIX I/O helpers shared by the net layer and the storage
// engine.
//
// Every kernel call that can return EINTR or transfer fewer bytes than
// asked is wrapped here exactly once, so the socket loops in net/ and
// the WAL writer in storage/ share one audited retry policy instead of
// hand-rolled loops:
//   * send_some / recv_some — one non-blocking transfer attempt with
//     EINTR retry, classifying the outcome (progress / would-block /
//     EOF / hard error) for epoll-driven callers.
//   * send_all / write_all / read_exact — blocking-fd loops that retry
//     EINTR and resume partial transfers until done or a hard error.
//   * fsync_fd / fsync_path — durability barriers (the WAL's group
//     commit and the snapshot rename protocol).
#pragma once

#include <cstddef>
#include <string>

namespace itree::io {

/// Outcome of one non-blocking transfer attempt.
enum class IoStatus {
  kProgress,    ///< transferred >= 1 byte (count in the out-param)
  kWouldBlock,  ///< EAGAIN/EWOULDBLOCK: retry when epoll says so
  kEof,         ///< orderly peer shutdown (recv only)
  kError,       ///< hard failure; errno is preserved for the caller
};

/// One recv() attempt with EINTR retry. On kProgress, *received is the
/// byte count (>= 1).
IoStatus recv_some(int fd, char* data, std::size_t size,
                   std::size_t* received);

/// One send(MSG_NOSIGNAL) attempt with EINTR retry. On kProgress,
/// *sent is the byte count (>= 1).
IoStatus send_some(int fd, const char* data, std::size_t size,
                   std::size_t* sent);

/// Sends all `size` bytes on a blocking socket (MSG_NOSIGNAL),
/// retrying EINTR and resuming short writes. False on hard error
/// (errno preserved).
bool send_all(int fd, const char* data, std::size_t size);

/// write()s all `size` bytes (regular files / pipes), retrying EINTR
/// and short writes. False on hard error (errno preserved).
bool write_all(int fd, const void* data, std::size_t size);

/// Reads exactly `size` bytes, retrying EINTR and short reads. False
/// on EOF-before-size or hard error (errno preserved; errno == 0 for
/// clean EOF).
bool read_exact(int fd, void* data, std::size_t size);

/// fsync() with EINTR retry. False on hard error (errno preserved).
bool fsync_fd(int fd);

/// Opens `path` read-only, fsyncs it, closes. Directories included —
/// this is the "make the rename/create durable" barrier. False on
/// failure.
bool fsync_path(const std::string& path);

}  // namespace itree::io
