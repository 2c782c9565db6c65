// Functional-plane channel over a real stream socket (AF_UNIX socketpair or
// TCP connection).
//
// PDUs are framed by their length field. The endpoint's executor must run
// on a sim::RealExecutor (directly or through a decorator): the channel
// registers its non-blocking fd with that reactor, which reads it on
// readiness and calls the handler inline — no reader thread, no hop.
// Reading starts when set_handler() runs, so a PDU that arrives earlier
// waits in the kernel. send() writes header and payload with one gather
// write from any thread; what the socket does not take is queued and
// flushed when the fd turns writable, so a send never blocks. close()
// stops delivery and shuts the socket down once the queue has flushed.
// Used by integration tests, examples and the real tools.
#pragma once

#include "common/status.h"
#include "net/channel.h"
#include "pdu/codec.h"

namespace oaf::net {

Result<ChannelPair> make_socket_channel_pair(Executor& a, Executor& b,
                                             const pdu::CodecOptions& opts = {});

/// Wrap an already-connected stream socket (socketpair end, accepted TCP
/// connection, ...) as a framed PDU channel delivering into `exec`. Takes
/// ownership of `fd`.
std::unique_ptr<MsgChannel> wrap_stream_fd(int fd, Executor& exec,
                                           const pdu::CodecOptions& opts = {});

}  // namespace oaf::net
