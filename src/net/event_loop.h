// The epoll transport shared by the campaign daemon (net/server.h) and
// the shard router (router/router.h).
//
// An EventLoop is one reactor thread's transport: its own listener
// (every loop of a front end binds the same address with port sharing,
// and the kernel spreads incoming connections across them), an epoll
// instance, an eventfd waker, and the client sessions it accepted. It
// owns everything about moving frames between sockets and its handler:
//   * reading: recv straight into the session's FrameDecoder buffer;
//     every complete payload takes the session's next sequence number
//     and goes to LoopHandler::on_frame as a view of that buffer. A
//     corrupt stream (impossible length prefix) gets one kBadRequest
//     error frame, then the session closes; an EOF in the middle of a
//     frame discards the partial frame and counts as a protocol error.
//   * the per-session sequencer: responses are released to the wire
//     strictly in request order. An in-order response is framed
//     straight into the tail output chunk; one that completes early (on
//     another reactor, or on a faster shard) waits in `held` as framed
//     bytes until everything before it was released.
//   * writing: released frames coalesce into 256 KiB chunks, and a
//     flush gathers up to 64 chunks into one sendmsg. A response that
//     comes already framed (a REWARDS vector) or a held frame of at
//     least a chunk is queued as a chunk of its own, not copied. The
//     loop keeps one drained chunk of at most 64 KiB capacity as a
//     spare for the next new chunk of any session, so a connection
//     that drains between responses does not allocate per response;
//     the out-queue keeps its slot capacity too. A flush that leaves a
//     session's epoll mask as registered issues no EPOLL_CTL_MOD.
//   * slow-reader backpressure: past max_write_buffer pending bytes a
//     session is not read until it drains below half the mark.
//   * idle sessions are closed after idle_timeout_seconds.
//   * draining: request_drain() (async-signal-safe) stops accepting and
//     reading, flushes what is queued, and run() returns once every
//     session settled and the handler reports its own work settled —
//     or after a 5 s deadline, when a peer neither reads nor
//     disconnects.
//
// The handler supplies what a front end does with frames: on_frame()
// answers each request through deliver() (at once or in a later pass),
// on_tick() runs once per pass before queued output is flushed,
// ctl() adds the handler's own fds (the router's backend connections)
// to the same epoll set, timeout_ms() bounds the wait for the handler's
// timers, set_reads_paused() stops reading every session (the router's
// backend backpressure), and drain_settled() holds a drain open while
// the handler still has work in flight.
#pragma once

#include <atomic>
#include <concepts>
#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "net/protocol.h"
#include "util/io.h"

namespace itree::net {

/// Where a response belongs: a session (the serial guards against a
/// reused fd) and the sequence number its request took.
struct ResponseSlot {
  int fd = -1;
  std::uint64_t serial = 0;
  std::uint64_t seq = 0;
};

/// A FIFO of output chunks that keeps its capacity: a vector of slots
/// and a head index, compacted in place (moves, no allocation) once the
/// popped prefix is half of it.
class ChunkQueue {
 public:
  bool empty() const { return head_ == slots_.size(); }
  std::size_t size() const { return slots_.size() - head_; }
  std::string& operator[](std::size_t i) { return slots_[head_ + i]; }
  std::string& front() { return slots_[head_]; }
  std::string& back() { return slots_.back(); }
  void push_back(std::string&& chunk) { slots_.push_back(std::move(chunk)); }

  /// Drops the front chunk and frees its buffer (a caller that wants
  /// the buffer moves it out first).
  void pop_front() {
    std::string().swap(slots_[head_++]);
    if (2 * head_ >= slots_.size()) {
      slots_.erase(slots_.begin(), slots_.begin() + head_);
      head_ = 0;
    }
  }

 private:
  std::vector<std::string> slots_;
  std::size_t head_ = 0;
};

/// One accepted client connection.
struct Session {
  int fd = -1;
  std::uint64_t serial = 0;  ///< distinguishes a reused fd
  FrameDecoder decoder;
  /// Framed responses awaiting the wire; front_sent is the prefix of
  /// the front chunk already sent, out_bytes the total pending.
  ChunkQueue outq;
  std::size_t front_sent = 0;
  std::size_t out_bytes = 0;
  /// Sequencer: every decoded frame takes next_seq; responses are
  /// released strictly in sequence, early completions framed in `held`.
  std::uint64_t next_seq = 0;
  std::uint64_t next_send = 0;
  std::map<std::uint64_t, std::string> held;
  double last_activity = 0.0;
  /// The epoll mask registered for fd; update_interest() skips the
  /// EPOLL_CTL_MOD when the mask it computes equals it.
  std::uint32_t events = 0;
  bool reading = true;  ///< EPOLLIN wanted
  bool close_after_flush = false;
  bool broken = false;   ///< hard error / EOF: close this pass
  bool touched = false;  ///< queued output since the last flush

  /// Nothing queued, and every assigned sequence released: safe to close.
  bool settled() const {
    return out_bytes == 0 && next_send == next_seq && held.empty();
  }
  ResponseSlot slot(std::uint64_t seq) const { return {fd, serial, seq}; }
};

/// A front end's side of an EventLoop. Every hook runs on the loop's
/// thread.
class LoopHandler {
 public:
  /// One decoded frame of `session`; answer it with
  /// EventLoop::deliver(session, seq, ...), now or in a later pass.
  /// `payload` views the session's receive buffer and is valid only
  /// during the call.
  virtual void on_frame(Session& session, std::uint64_t seq,
                        std::string_view payload) = 0;
  /// An fd the handler added with EventLoop::ctl() is ready.
  virtual void on_fd_ready(int /*fd*/, std::uint32_t /*events*/) {}
  /// Once per pass, after the ready events, before output is flushed.
  virtual void on_tick() {}
  /// Longest wait (ms) the handler's timers allow; -1 = none.
  virtual int timeout_ms() const { return -1; }
  /// Polled once per pass while draining: false holds the drain open.
  virtual bool drain_settled() { return true; }

 protected:
  ~LoopHandler() = default;
};

class EventLoop {
 public:
  /// Transport counters, summed by the front ends into their own.
  enum Counter : std::size_t {
    kSessionsAccepted,
    kSessionsClosed,
    kResponsesReleased,
    kProtocolErrors,
    /// Sessions answered with one error frame because their stream
    /// could no longer be framed (also counted in kProtocolErrors).
    kCorruptStreams,
    kSessionsTimedOut,
    kBackpressureStalls,
    /// EPOLL_CTL_MOD calls for sessions (not reported in server stats):
    /// a session whose mask does not change makes none.
    kInterestUpdates,
    kCounterCount,
  };

  struct Options {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;  ///< 0 = kernel-assigned; see port()
    double idle_timeout_seconds = 0.0;  ///< 0 disables the idle sweep
    std::size_t max_write_buffer = 4u << 20;
    std::string owner = "EventLoop";  ///< prefix of setup error messages
  };

  /// Binds and listens at once, so port() is valid before run(). Throws
  /// std::runtime_error on any socket/epoll setup failure.
  EventLoop(LoopHandler& handler, const Options& options);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  std::uint16_t port() const { return port_; }

  /// Runs until a requested drain completes.
  void run();

  /// Async-signal-safe: a single eventfd write.
  void wake();
  /// Async-signal-safe: one atomic store and wake().
  void request_drain();
  bool draining() const { return draining_; }

  /// Releases one response for slot `seq` of `session`. `append(out)`
  /// appends exactly one framed response to `out`: the tail output
  /// chunk when `seq` is next in line, a held buffer otherwise.
  template <typename Append>
    requires std::invocable<Append&, std::string&>
  void deliver(Session& session, std::uint64_t seq, Append&& append);
  /// deliver() of an encoded response; the pre-encoded ok_frame() for a
  /// plain OK, and a kRejected error when the response exceeds the
  /// frame size limit.
  void deliver(Session& session, std::uint64_t seq,
               const Response& response);
  /// As above; a response that arrives already framed
  /// (Response::framed, a REWARDS vector) is moved into the output
  /// queue as a chunk of its own instead of being copied.
  void deliver(Session& session, std::uint64_t seq, Response&& response);

  /// The session `slot` names, or nullptr once it closed or broke.
  Session* session_for(const ResponseSlot& slot);

  /// Stops (true) or resumes (false) reading every session.
  void set_reads_paused(bool paused);

  void count_protocol_error() { count(kProtocolErrors); }

  /// epoll_ctl(op) of `fd` in this loop's set; false on failure. The
  /// handler's own fds (added with EPOLL_CTL_ADD) report readiness to
  /// LoopHandler::on_fd_ready.
  bool ctl(int op, int fd, std::uint32_t events);

  /// Relaxed-atomic read; exact once run() returned.
  std::uint64_t counter(Counter c) const {
    return counters_[c].load(std::memory_order_relaxed);
  }

 private:
  void count(Counter c, std::uint64_t n = 1) {
    counters_[c].fetch_add(n, std::memory_order_relaxed);
  }

  int timeout_ms() const;
  Session* session_at(int fd);
  void accept_ready();
  void on_readable(Session& session);
  void on_writable(Session& session);
  std::string& tail_chunk(Session& session);
  void released(Session& session, std::size_t bytes);
  void release_held(Session& session);
  void flush(Session& session);
  void flush_touched();
  void maybe_resume_reading(Session& session);
  void update_interest(Session& session);
  void close_session(int fd);
  void harvest_idle(double now);
  void begin_drain();
  bool drain_done(double now);

  LoopHandler& handler_;
  const double idle_timeout_seconds_;
  const std::size_t max_write_buffer_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::atomic<bool> drain_requested_{false};
  bool draining_ = false;
  double drain_started_ = 0.0;
  bool reads_paused_ = false;

  std::uint64_t next_serial_ = 0;
  std::vector<std::unique_ptr<Session>> sessions_;  ///< indexed by fd
  std::vector<int> touched_;  ///< fds with queued output this pass
  std::string spare_chunk_;   ///< a drained out-queue chunk; see tail_chunk
  std::atomic<std::uint64_t> counters_[kCounterCount] = {};
};

template <typename Append>
  requires std::invocable<Append&, std::string&>
void EventLoop::deliver(Session& session, std::uint64_t seq,
                        Append&& append) {
  if (seq != session.next_send) {
    append(session.held[seq]);
    return;
  }
  std::string& tail = tail_chunk(session);
  const std::size_t before = tail.size();
  append(tail);
  released(session, tail.size() - before);
  if (!session.held.empty()) {
    release_held(session);
  }
}

/// Reads what the non-blocking `fd` has straight into `decoder`'s
/// buffer (FrameDecoder::recv_room), stopping at the first short read.
/// kEof / kError: the peer is gone (bytes read before it are in
/// `decoder`); kProgress: bytes arrived; kWouldBlock: none.
io::IoStatus recv_frames(int fd, FrameDecoder& decoder);

/// Runs `body(i)` for every i < count — index 0 on the calling thread,
/// the others on threads of their own — and joins them all. When a body
/// throws, `on_error()` runs (front ends drain every loop, so the other
/// bodies return). Returns the lowest-index body's exception, or null.
std::exception_ptr run_on_threads(
    std::size_t count, const std::function<void(std::size_t)>& body,
    const std::function<void()>& on_error);

}  // namespace itree::net
