#include "net/event_loop.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>

#include "util/bench_json.h"  // monotonic_seconds
#include "util/io.h"

namespace itree::net {

namespace {

/// A peer that neither reads nor disconnects could stall a graceful
/// drain forever; after this many seconds the drain force-closes.
constexpr double kDrainDeadlineSeconds = 5.0;

/// Response chunks are coalesced up to this size, then a fresh chunk
/// starts; a flush gathers up to kMaxFlushIov chunks into one sendmsg.
constexpr std::size_t kOutChunkBytes = 256 * 1024;
/// Largest drained chunk kept as the loop's spare: one per loop, so
/// its memory does not grow with the number of sessions.
constexpr std::size_t kSpareChunkBytes = 64 * 1024;
constexpr int kMaxFlushIov = 64;

/// One vectored sendmsg(MSG_NOSIGNAL) attempt with EINTR retry (the
/// io::send_some contract): gathers a session's queued chunks into one
/// syscall. On kProgress, *sent is the total byte count (>= 1; may end
/// mid-iovec).
io::IoStatus sendv_some(int fd, const iovec* iov, int iovcnt,
                        std::size_t* sent) {
  msghdr msg{};
  msg.msg_iov = const_cast<iovec*>(iov);
  msg.msg_iovlen = static_cast<std::size_t>(iovcnt);
  while (true) {
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n >= 0) {
      *sent = static_cast<std::size_t>(n);
      return io::IoStatus::kProgress;
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return io::IoStatus::kWouldBlock;
    }
    return io::IoStatus::kError;
  }
}

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// Appends `response` framed; a response larger than a frame allows (a
/// gigantic reward vector) degrades to an in-protocol error instead of
/// a broken stream.
void append_response(std::string& out, const Response& response) {
  if (response.status == Status::kOk && response.seq == 0) {
    out += ok_frame();  // pre-encoded ACK, the most common response
    return;
  }
  try {
    append_framed_response(out, response);
  } catch (const ProtocolError&) {
    append_framed_response(
        out, error_response(ErrorCode::kRejected,
                            "response exceeds frame size limit"));
  }
}

}  // namespace

EventLoop::EventLoop(LoopHandler& handler, const Options& options)
    : handler_(handler),
      idle_timeout_seconds_(options.idle_timeout_seconds),
      max_write_buffer_(options.max_write_buffer) {
  listen_fd_ =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    fail("socket");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  // Every loop of a front end binds its own listener to the same
  // address; the kernel hashes incoming connections across them.
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  if (::inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error(options.owner + ": bad host '" +
                             options.host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 512) != 0) {
    const std::string what = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error(options.owner + ": cannot listen on " +
                             options.host + ":" +
                             std::to_string(options.port) + ": " + what);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                &bound_len);
  port_ = ntohs(bound.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    fail("epoll_create1/eventfd");
  }
  ctl(EPOLL_CTL_ADD, listen_fd_, EPOLLIN);
  ctl(EPOLL_CTL_ADD, wake_fd_, EPOLLIN);
}

EventLoop::~EventLoop() {
  for (auto& session : sessions_) {
    if (session) {
      ::close(session->fd);
    }
  }
  for (const int fd : {listen_fd_, epoll_fd_, wake_fd_}) {
    if (fd >= 0) {
      ::close(fd);
    }
  }
}

void EventLoop::wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::request_drain() {
  drain_requested_.store(true, std::memory_order_release);
  wake();
}

int EventLoop::timeout_ms() const {
  if (draining_) {
    return 20;
  }
  const int handler_ms = handler_.timeout_ms();
  const int idle_ms = idle_timeout_seconds_ > 0 ? 100 : -1;
  if (handler_ms < 0 || idle_ms < 0) {
    return std::max(handler_ms, idle_ms);
  }
  return std::min(handler_ms, idle_ms);
}

void EventLoop::run() {
  static constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];

  while (true) {
    const int ready =
        ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms());
    if (ready < 0) {
      if (errno == EINTR) {
        continue;
      }
      fail("epoll_wait");
    }
    for (int i = 0; i < ready; ++i) {
      const int fd = events[i].data.fd;
      if (fd == listen_fd_) {
        accept_ready();
        continue;
      }
      if (fd == wake_fd_) {
        // Clear-before-drain: any poke that lands after this read
        // re-arms the eventfd, so it is never lost.
        std::uint64_t drained = 0;
        [[maybe_unused]] const ssize_t n =
            ::read(wake_fd_, &drained, sizeof(drained));
        continue;
      }
      Session* session = session_at(fd);
      if (session == nullptr) {
        handler_.on_fd_ready(fd, events[i].events);
        continue;
      }
      if (events[i].events & (EPOLLERR | EPOLLHUP)) {
        session->broken = true;
        continue;
      }
      if ((events[i].events & EPOLLIN) && !draining_) {
        on_readable(*session);
      }
      if (events[i].events & EPOLLOUT) {
        on_writable(*session);
      }
    }

    handler_.on_tick();
    flush_touched();

    // Sweep sessions that broke or finished their final flush.
    for (std::size_t fd = 0; fd < sessions_.size(); ++fd) {
      const Session* session = sessions_[fd].get();
      if (session != nullptr &&
          (session->broken ||
           (session->close_after_flush && session->settled()))) {
        close_session(static_cast<int>(fd));
      }
    }

    const double now = monotonic_seconds();
    if (idle_timeout_seconds_ > 0 && !draining_) {
      harvest_idle(now);
    }
    if (!draining_ && drain_requested_.load(std::memory_order_acquire)) {
      begin_drain();
      drain_started_ = now;
    }
    if (draining_ && drain_done(now)) {
      return;
    }
  }
}

void EventLoop::accept_ready() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return;
      }
      if (errno == EINTR || errno == ECONNABORTED) {
        continue;
      }
      return;  // EMFILE etc.: drop the pending connection, stay up
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (static_cast<std::size_t>(fd) >= sessions_.size()) {
      sessions_.resize(fd + 1);
    }
    auto session = std::make_unique<Session>();
    session->fd = fd;
    session->serial = ++next_serial_;
    session->last_activity = monotonic_seconds();
    session->reading = !reads_paused_;
    session->events = session->reading ? EPOLLIN : 0u;
    if (!ctl(EPOLL_CTL_ADD, fd, session->events)) {
      ::close(fd);
      continue;
    }
    sessions_[fd] = std::move(session);
    count(kSessionsAccepted);
  }
}

void EventLoop::on_readable(Session& session) {
  if (!session.reading) {
    return;
  }
  const io::IoStatus status = recv_frames(session.fd, session.decoder);
  if (status == io::IoStatus::kError) {
    session.broken = true;
    return;
  }
  if (status == io::IoStatus::kProgress) {
    session.last_activity = monotonic_seconds();
  }

  std::string_view payload;
  while (session.decoder.next(&payload)) {
    handler_.on_frame(session, session.next_seq++, payload);
    if (session.broken) {
      return;
    }
  }
  if (session.decoder.corrupt()) {
    // The stream can no longer be framed: answer once, then hang up.
    count(kProtocolErrors);
    count(kCorruptStreams);
    deliver(session, session.next_seq++,
            error_response(ErrorCode::kBadRequest,
                           session.decoder.corruption()));
    session.close_after_flush = true;
    if (session.reading) {
      session.reading = false;
      update_interest(session);
    }
  }
  if (status == io::IoStatus::kEof) {
    if (session.decoder.buffered() != 0 && !session.decoder.corrupt()) {
      count(kProtocolErrors);  // mid-frame disconnect
    }
    session.broken = true;
  }
}

void EventLoop::deliver(Session& session, std::uint64_t seq,
                        const Response& response) {
  deliver(session, seq,
          [&response](std::string& out) { append_response(out, response); });
}

void EventLoop::deliver(Session& session, std::uint64_t seq,
                        Response&& response) {
  if (response.framed.empty()) {
    deliver(session, seq, std::as_const(response));
    return;
  }
  std::string framed = std::move(response.framed);
  if (seq != session.next_send) {
    session.held[seq] = std::move(framed);
    return;
  }
  const std::size_t bytes = framed.size();
  session.outq.push_back(std::move(framed));
  released(session, bytes);
  if (!session.held.empty()) {
    release_held(session);
  }
}

std::string& EventLoop::tail_chunk(Session& session) {
  if (session.outq.empty() ||
      session.outq.back().size() >= kOutChunkBytes) {
    // Reuses the spare's buffer when there is one; leaves it empty.
    session.outq.push_back(std::move(spare_chunk_));
    spare_chunk_.clear();
    session.outq.back().clear();
  }
  return session.outq.back();
}

void EventLoop::released(Session& session, std::size_t bytes) {
  session.out_bytes += bytes;
  ++session.next_send;
  count(kResponsesReleased);
  if (!session.touched) {
    session.touched = true;
    touched_.push_back(session.fd);
  }
  if (session.reading && session.out_bytes > max_write_buffer_) {
    // Slow reader: stop accepting its requests until it drains.
    session.reading = false;
    count(kBackpressureStalls);
  }
}

void EventLoop::release_held(Session& session) {
  auto it = session.held.begin();
  while (it != session.held.end() && it->first == session.next_send) {
    const std::size_t bytes = it->second.size();
    if (bytes >= kOutChunkBytes) {
      session.outq.push_back(std::move(it->second));  // its own chunk
    } else {
      tail_chunk(session) += it->second;
    }
    released(session, bytes);
    it = session.held.erase(it);
  }
}

void EventLoop::flush(Session& session) {
  while (session.out_bytes > 0) {
    iovec iov[kMaxFlushIov];
    int iovcnt = 0;
    for (std::size_t c = 0;
         c < session.outq.size() && iovcnt < kMaxFlushIov; ++c) {
      const std::string& chunk = session.outq[c];
      const std::size_t skip = (c == 0) ? session.front_sent : 0;
      if (chunk.size() == skip) {
        continue;
      }
      iov[iovcnt].iov_base = const_cast<char*>(chunk.data() + skip);
      iov[iovcnt].iov_len = chunk.size() - skip;
      ++iovcnt;
    }
    if (iovcnt == 0) {
      break;
    }
    std::size_t sent = 0;
    const io::IoStatus status =
        sendv_some(session.fd, iov, iovcnt, &sent);
    if (status == io::IoStatus::kProgress) {
      session.last_activity = monotonic_seconds();
      session.out_bytes -= sent;
      while (sent > 0) {
        std::string& front = session.outq.front();
        const std::size_t avail = front.size() - session.front_sent;
        if (sent >= avail) {
          sent -= avail;
          if (front.capacity() <= kSpareChunkBytes &&
              front.capacity() > spare_chunk_.capacity()) {
            spare_chunk_ = std::move(front);
          }
          session.outq.pop_front();
          session.front_sent = 0;
        } else {
          session.front_sent += sent;
          sent = 0;
        }
      }
      continue;
    }
    if (status == io::IoStatus::kWouldBlock) {
      break;
    }
    session.broken = true;
    return;
  }
}

void EventLoop::flush_touched() {
  for (const int fd : touched_) {
    Session* session = session_at(fd);
    if (session == nullptr) {
      continue;
    }
    session->touched = false;
    if (!session->broken) {
      on_writable(*session);
    }
  }
  touched_.clear();
}

void EventLoop::on_writable(Session& session) {
  flush(session);
  if (session.broken) {
    return;
  }
  maybe_resume_reading(session);
  update_interest(session);
}

void EventLoop::maybe_resume_reading(Session& session) {
  // Backpressure release: the peer caught up, resume reading. This must
  // run on EVERY flush path, not just EPOLLOUT — when a flush drains
  // the whole queue in one send, a paused session would otherwise end
  // up with neither EPOLLIN nor EPOLLOUT armed and sleep forever while
  // its remaining pipelined requests sit in the kernel receive buffer.
  if (!session.reading && !session.close_after_flush && !draining_ &&
      !reads_paused_ && session.out_bytes < max_write_buffer_ / 2) {
    session.reading = true;
  }
}

void EventLoop::update_interest(Session& session) {
  const std::uint32_t events = (session.reading && !draining_ ? EPOLLIN : 0u) |
                               (session.out_bytes > 0 ? EPOLLOUT : 0u);
  if (events == session.events) {
    return;  // level-triggered: the registered mask still holds
  }
  count(kInterestUpdates);
  if (ctl(EPOLL_CTL_MOD, session.fd, events)) {
    session.events = events;  // a failed MOD is retried on the next call
  }
}

void EventLoop::set_reads_paused(bool paused) {
  if (paused == reads_paused_) {
    return;
  }
  reads_paused_ = paused;
  for (auto& owned : sessions_) {
    Session* session = owned.get();
    if (session == nullptr || session->broken) {
      continue;
    }
    if (paused) {
      if (session->reading) {
        session->reading = false;
        count(kBackpressureStalls);
        update_interest(*session);
      }
    } else {
      maybe_resume_reading(*session);
      update_interest(*session);
    }
  }
}

Session* EventLoop::session_at(int fd) {
  return (fd >= 0 && static_cast<std::size_t>(fd) < sessions_.size())
             ? sessions_[fd].get()
             : nullptr;
}

Session* EventLoop::session_for(const ResponseSlot& slot) {
  Session* session = session_at(slot.fd);
  return (session != nullptr && session->serial == slot.serial &&
          !session->broken)
             ? session
             : nullptr;
}

bool EventLoop::ctl(int op, int fd, std::uint32_t events) {
  epoll_event event{};
  event.events = events;
  event.data.fd = fd;
  return ::epoll_ctl(epoll_fd_, op, fd, &event) == 0;
}

void EventLoop::close_session(int fd) {
  if (session_at(fd) == nullptr) {
    return;
  }
  ctl(EPOLL_CTL_DEL, fd, 0);
  ::close(fd);
  sessions_[fd].reset();
  count(kSessionsClosed);
}

void EventLoop::harvest_idle(double now) {
  for (std::size_t fd = 0; fd < sessions_.size(); ++fd) {
    const Session* session = sessions_[fd].get();
    if (session != nullptr && session->settled() &&
        now - session->last_activity > idle_timeout_seconds_) {
      count(kSessionsTimedOut);
      close_session(static_cast<int>(fd));
    }
  }
}

void EventLoop::begin_drain() {
  draining_ = true;
  ctl(EPOLL_CTL_DEL, listen_fd_, 0);
  // Stop reading everywhere; only flush from here on.
  for (auto& session : sessions_) {
    if (session) {
      update_interest(*session);
    }
  }
}

bool EventLoop::drain_done(double now) {
  const bool handler_settled = handler_.drain_settled();
  const bool deadline = now - drain_started_ > kDrainDeadlineSeconds;
  bool sessions_settled = true;
  for (std::size_t fd = 0; fd < sessions_.size(); ++fd) {
    const Session* session = sessions_[fd].get();
    if (session == nullptr) {
      continue;
    }
    if (session->settled() || deadline) {
      close_session(static_cast<int>(fd));
    } else {
      sessions_settled = false;
    }
  }
  return (sessions_settled && handler_settled) || deadline;
}

io::IoStatus recv_frames(int fd, FrameDecoder& decoder) {
  io::IoStatus result = io::IoStatus::kWouldBlock;
  while (true) {
    const std::span<char> room = decoder.recv_room();
    std::size_t received = 0;
    const io::IoStatus status =
        io::recv_some(fd, room.data(), room.size(), &received);
    if (status != io::IoStatus::kProgress) {
      return status == io::IoStatus::kWouldBlock ? result : status;
    }
    decoder.commit(received);
    result = io::IoStatus::kProgress;
    if (received < room.size()) {
      return result;  // likely drained; epoll is level-triggered anyway
    }
  }
}

std::exception_ptr run_on_threads(
    std::size_t count, const std::function<void(std::size_t)>& body,
    const std::function<void()>& on_error) {
  std::vector<std::exception_ptr> errors(count);
  const auto guarded = [&](std::size_t i) {
    try {
      body(i);
    } catch (...) {
      errors[i] = std::current_exception();
      on_error();
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(count > 0 ? count - 1 : 0);
  for (std::size_t i = 1; i < count; ++i) {
    threads.emplace_back(guarded, i);
  }
  if (count > 0) {
    guarded(0);
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (const std::exception_ptr& error : errors) {
    if (error) {
      return error;
    }
  }
  return nullptr;
}

}  // namespace itree::net
