#include "net/socket_channel.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <deque>
#include <memory>

#include "common/log.h"
#include "common/mutex.h"
#include "sim/real_executor.h"

namespace oaf::net {

namespace {

using sim::RealExecutor;

/// Framing buffer: one recv() takes in every small PDU the socket holds; a
/// frame that does not fit reads the rest of its payload in place.
constexpr size_t kRecvBytes = 16 * 1024;
/// iovecs one flushing sendmsg() gathers from the send queue.
constexpr size_t kMaxIov = 64;

/// Non-blocking gather send. Returns the bytes taken (0 when the socket
/// buffer is full) or -1 on a dead connection. MSG_NOSIGNAL: a peer that
/// vanishes mid-run (path kill, crash) must surface as a send error on this
/// channel, not a process-wide SIGPIPE — with multipath the other
/// connections keep serving.
ssize_t send_iov(int fd, iovec* iov, size_t count) {
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = count;
  for (;;) {
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n >= 0) return n;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
    return -1;
  }
}

/// A frame the socket did not take whole: its encoded header, its payload,
/// and how many of their bytes have gone out.
struct OutFrame {
  std::vector<u8> head;
  std::vector<u8> payload;
  size_t sent = 0;
};

/// One connected stream socket: the send queue, framing, and receive state.
/// The channel the engine holds and the reactor polling the fd share it, so
/// it outlives whichever lets go first, and an event the reactor already
/// returned never finds it freed.
///
/// Threads: the receive side (handler, framing buffer, partial PDU) runs
/// only on the reactor. send() and close() may run on any thread; they and
/// the reactor's flushes serialize on mu_, which also guards what the fd is
/// polled for.
class Stream final : public RealExecutor::IoSource,
                     public std::enable_shared_from_this<Stream> {
 public:
  Stream(int fd, const pdu::CodecOptions& opts) : fd_(fd), opts_(opts) {}
  ~Stream() override { ::close(fd_); }

  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  /// Reactor thread, posted by the channel's constructor: join the reactor.
  void attach() {
    RealExecutor* reactor = RealExecutor::current();
    if (reactor == nullptr) {
      OAF_ERROR("socket channel: executor does not run on a RealExecutor; "
                "the channel cannot receive");
      return;
    }
    MutexLock lk(mu_);
    if (detached_ && sendq_.empty()) return;
    reactor_ = reactor;
    reactor->adopt(shared_from_this());
    sync();
  }

  /// Reactor thread: install the handler and start reading. Until then a
  /// PDU the peer sent waits in the kernel's buffer.
  void install(MsgChannel::Handler handler) {
    handler_ = std::move(handler);
    MutexLock lk(mu_);
    reading_ = handler_ && is_open();
    sync();
  }

  void send(pdu::Pdu pdu) {
    MutexLock lk(mu_);
    if (!is_open() || shut_) return;
    pdu::encode_header(pdu, opts_, head_);
    const size_t total = head_.size() + pdu.payload.size();
    size_t sent = 0;
    if (sendq_.empty()) {
      iovec iov[2] = {{head_.data(), head_.size()},
                      {pdu.payload.data(), pdu.payload.size()}};
      const ssize_t n = send_iov(fd_, iov, pdu.payload.empty() ? 1 : 2);
      if (n < 0) return fail_send();
      sent = static_cast<size_t>(n);
    }
    bytes_sent_.fetch_add(total, std::memory_order_relaxed);
    pdus_sent_.fetch_add(1, std::memory_order_relaxed);
    if (sent == total) return;
    // The socket is full: queue the rest (the payload moves, it is not
    // copied) and flush it when the reactor reports the fd writable.
    sendq_.push_back(OutFrame{head_, std::move(pdu.payload), sent});
    sync();
  }

  /// Stops delivery now; the socket shuts down once the queue has flushed.
  void close() {
    if (!open_.exchange(false, std::memory_order_acq_rel)) return;
    MutexLock lk(mu_);
    sync();
  }

  /// The channel is gone: close, finish flushing, then leave the reactor.
  void detach() {
    close();
    MutexLock lk(mu_);
    detached_ = true;
    sync();
  }

  [[nodiscard]] bool is_open() const {
    return open_.load(std::memory_order_acquire);
  }
  [[nodiscard]] u64 bytes_sent() const {
    return bytes_sent_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] u64 pdus_sent() const {
    return pdus_sent_.load(std::memory_order_relaxed);
  }

  void on_ready(u32 events) override {
    if ((events & (EPOLLOUT | EPOLLERR | EPOLLHUP)) != 0) {
      MutexLock lk(mu_);
      if (!sendq_.empty()) {
        flush();
        sync();
      }
    }
    if ((events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) receive();
  }

  void on_reactor_gone() override {
    MutexLock lk(mu_);
    reactor_ = nullptr;
    polled_ = 0;
  }

 private:
  /// Bring the shutdown and what the fd is polled for in line with the
  /// state: write interest while the queue holds bytes; read interest while
  /// a handler is installed and the channel is open — or, once closed,
  /// while the queue flushes, so a peer flushing to us cannot wedge our
  /// flush (what arrives then is dropped).
  void sync() OAF_REQUIRES(mu_) {
    if (!is_open() && sendq_.empty() && !shut_) {
      ::shutdown(fd_, SHUT_RDWR);
      shut_ = true;
    }
    u32 want = 0;
    if (!sendq_.empty()) want |= EPOLLOUT;
    if (reading_ && (is_open() || !sendq_.empty())) want |= EPOLLIN;
    if (reactor_ == nullptr) return;
    reactor_->poll(fd_, this, polled_, want);
    polled_ = want;
    if (want == 0 && detached_ && !released_) {
      released_ = true;
      reactor_->release(this);
    }
  }

  void flush() OAF_REQUIRES(mu_) {
    while (!sendq_.empty()) {
      iovec iov[kMaxIov];
      size_t count = 0;
      for (OutFrame& f : sendq_) {
        if (count + 2 > kMaxIov) break;
        const size_t h = f.head.size();
        if (f.sent < h) iov[count++] = {f.head.data() + f.sent, h - f.sent};
        const size_t off = f.sent > h ? f.sent - h : 0;
        if (off < f.payload.size()) {
          iov[count++] = {f.payload.data() + off, f.payload.size() - off};
        }
      }
      const ssize_t n = send_iov(fd_, iov, count);
      if (n < 0) return fail_send();
      if (n == 0) return;  // full again; the next EPOLLOUT resumes
      auto left = static_cast<size_t>(n);
      while (left > 0) {
        OutFrame& f = sendq_.front();
        const size_t rest = f.head.size() + f.payload.size() - f.sent;
        if (left < rest) {
          f.sent += left;
          break;
        }
        left -= rest;
        sendq_.pop_front();
      }
    }
  }

  void fail_send() OAF_REQUIRES(mu_) {
    open_.store(false, std::memory_order_release);
    sendq_.clear();
    sync();
  }

  void stop_reading(const char* why) {
    if (why != nullptr) OAF_ERROR("socket channel: %s", why);
    open_.store(false, std::memory_order_release);
    MutexLock lk(mu_);
    reading_ = false;
    sync();
  }

  /// recv() returned `n` <= 0: EOF, a spurious wake-up, or a dead socket.
  void recv_ended(ssize_t n) {
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      return;
    }
    stop_reading(n == 0 ? nullptr : std::strerror(errno));
  }

  void receive() {
    {
      MutexLock lk(mu_);
      if (!reading_) return;
    }
    if (in_payload_) return read_payload();
    if (rbeg_ > 0) {
      std::memmove(rbuf_.data(), rbuf_.data() + rbeg_, rend_ - rbeg_);
      rend_ -= rbeg_;
      rbeg_ = 0;
    }
    // Full of one frame's unfinished header (typed headers may reach
    // 64 KiB): make room for the rest of it.
    if (rend_ == rbuf_.size()) rbuf_.resize(2 * rbuf_.size());
    const ssize_t n =
        ::recv(fd_, rbuf_.data() + rend_, rbuf_.size() - rend_, 0);
    if (n <= 0) return recv_ended(n);
    if (!is_open()) {
      rend_ = 0;  // closed and flushing: drop what arrives
      return;
    }
    rend_ += static_cast<size_t>(n);
    if (parse()) read_payload();
  }

  /// Deliver every complete frame in the buffer. Returns true when it left
  /// a frame whose payload is to be read straight into partial_.
  bool parse() {
    while (is_open() && rend_ - rbeg_ >= 8) {
      const std::span<const u8> buf(rbuf_.data() + rbeg_, rend_ - rbeg_);
      auto len = pdu::frame_length(buf);
      if (!len) {
        stop_reading(("bad frame: " + len.status().to_string()).c_str());
        return false;
      }
      const u64 frame = len.value();
      if (buf.size() >= frame) {
        auto decoded = pdu::decode(buf.first(frame), opts_);
        rbeg_ += frame;
        if (!decoded) {
          stop_reading(
              ("decode failed: " + decoded.status().to_string()).c_str());
          return false;
        }
        deliver(std::move(decoded).take());
        continue;
      }
      auto head = pdu::decode_head(buf, frame, opts_);
      if (!head) {
        if (head.status().code() == StatusCode::kOutOfRange) {
          break;  // the header itself is still arriving
        }
        stop_reading(("decode failed: " + head.status().to_string()).c_str());
        return false;
      }
      partial_ = std::move(head).take();
      const size_t header = frame - partial_.payload.size();
      partial_got_ = buf.size() - header;
      std::memcpy(partial_.payload.data(), buf.data() + header, partial_got_);
      rbeg_ = rend_ = 0;
      in_payload_ = true;
      return true;
    }
    if (rbeg_ == rend_) rbeg_ = rend_ = 0;
    return false;
  }

  void read_payload() {
    std::vector<u8>& p = partial_.payload;
    const size_t want = p.size() - partial_got_;
    const ssize_t n = ::recv(fd_, p.data() + partial_got_, want, 0);
    if (n <= 0) return recv_ended(n);
    partial_got_ += static_cast<size_t>(n);
    if (partial_got_ < p.size()) return;  // the rest is still in flight
    in_payload_ = false;
    deliver(std::move(partial_));
  }

  void deliver(pdu::Pdu pdu) {
    if (!is_open() || !handler_) return;
    // The handler may close the channel, replace the handler (posted, so
    // after this call), or destroy the channel; it must not be destroyed
    // while it runs.
    MsgChannel::Handler h;
    h.swap(handler_);
    h(std::move(pdu));
    if (!handler_ && is_open()) handler_.swap(h);
  }

  const int fd_;
  const pdu::CodecOptions opts_;
  std::atomic<bool> open_{true};
  std::atomic<u64> bytes_sent_{0};
  std::atomic<u64> pdus_sent_{0};

  Mutex mu_;
  RealExecutor* reactor_ OAF_GUARDED_BY(mu_) = nullptr;
  u32 polled_ OAF_GUARDED_BY(mu_) = 0;  ///< EPOLL* bits fd_ is polled for
  bool reading_ OAF_GUARDED_BY(mu_) = false;  ///< handler set, no EOF yet
  bool shut_ OAF_GUARDED_BY(mu_) = false;     ///< shutdown(2) done
  bool detached_ OAF_GUARDED_BY(mu_) = false; ///< the channel is gone
  bool released_ OAF_GUARDED_BY(mu_) = false; ///< handed back to the reactor
  std::vector<u8> head_ OAF_GUARDED_BY(mu_);  ///< header encode scratch
  std::deque<OutFrame> sendq_ OAF_GUARDED_BY(mu_);

  // Reactor thread only.
  MsgChannel::Handler handler_;
  std::vector<u8> rbuf_ = std::vector<u8>(kRecvBytes);
  size_t rbeg_ = 0;
  size_t rend_ = 0;
  pdu::Pdu partial_;  ///< frame whose payload is being read in place
  size_t partial_got_ = 0;
  bool in_payload_ = false;
};

class SocketEndpoint final : public MsgChannel {
 public:
  SocketEndpoint(int fd, Executor& exec, const pdu::CodecOptions& opts)
      : exec_(exec), stream_(std::make_shared<Stream>(fd, opts)) {
    // Never blocks: the reactor may be the calling thread (a reconnect
    // dials from inside a task).
    exec_.post([s = stream_] { s->attach(); });
  }

  ~SocketEndpoint() override { stream_->detach(); }

  SocketEndpoint(const SocketEndpoint&) = delete;
  SocketEndpoint& operator=(const SocketEndpoint&) = delete;

  void send(pdu::Pdu pdu) override { stream_->send(std::move(pdu)); }

  void set_handler(Handler handler) override {
    exec_.post([s = stream_, h = std::move(handler)]() mutable {
      s->install(std::move(h));
    });
  }

  void close() override { stream_->close(); }

  [[nodiscard]] bool is_open() const override { return stream_->is_open(); }
  [[nodiscard]] Executor& executor() override { return exec_; }
  [[nodiscard]] u64 bytes_sent() const override { return stream_->bytes_sent(); }
  [[nodiscard]] u64 pdus_sent() const override { return stream_->pdus_sent(); }

 private:
  Executor& exec_;
  const std::shared_ptr<Stream> stream_;
};

}  // namespace

Result<ChannelPair> make_socket_channel_pair(Executor& a, Executor& b,
                                             const pdu::CodecOptions& opts) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0,
                   fds) != 0) {
    return make_error(StatusCode::kInternal,
                      std::string("socketpair: ") + std::strerror(errno));
  }
  return ChannelPair{std::make_unique<SocketEndpoint>(fds[0], a, opts),
                     std::make_unique<SocketEndpoint>(fds[1], b, opts)};
}

std::unique_ptr<MsgChannel> wrap_stream_fd(int fd, Executor& exec,
                                           const pdu::CodecOptions& opts) {
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return std::make_unique<SocketEndpoint>(fd, exec, opts);
}

}  // namespace oaf::net
