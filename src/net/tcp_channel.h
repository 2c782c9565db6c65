// Real TCP/IP channels (AF_INET), for running the target and client as
// separate processes — the paper's actual deployment shape: control PDUs
// over a TCP connection, payloads over a POSIX shm region both processes
// map. Framing and reactor-polled delivery are identical to SocketChannel.
#pragma once

#include <string>

#include "common/status.h"
#include "net/channel.h"
#include "pdu/codec.h"

namespace oaf::net {

/// Listening socket; accept() yields one channel per client connection.
class TcpListener {
 public:
  ~TcpListener();
  TcpListener(TcpListener&&) noexcept;
  TcpListener& operator=(TcpListener&&) = delete;
  TcpListener(const TcpListener&) = delete;

  /// Bind and listen on 127.0.0.1:`port` (0 = ephemeral).
  static Result<TcpListener> listen(u16 port);

  /// Port actually bound (useful with port 0).
  [[nodiscard]] u16 port() const { return port_; }

  /// Block until a client connects; the returned channel delivers into
  /// `exec`.
  Result<std::unique_ptr<MsgChannel>> accept(Executor& exec,
                                             const pdu::CodecOptions& opts = {});

 private:
  TcpListener(int fd, u16 port) : fd_(fd), port_(port) {}
  int fd_ = -1;
  u16 port_ = 0;
};

/// Connect to `host`:`port`; the returned channel delivers into `exec`.
Result<std::unique_ptr<MsgChannel>> tcp_connect(
    const std::string& host, u16 port, Executor& exec,
    const pdu::CodecOptions& opts = {});

}  // namespace oaf::net
