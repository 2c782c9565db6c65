// Message channel abstraction.
//
// A MsgChannel carries whole PDUs between two endpoints. Three families
// implement it:
//   * PipeChannel   — functional plane, in-memory, encodes/decodes through
//                     the real codec and hops executors (deterministic-ish,
//                     fast, used by most protocol tests);
//   * SocketChannel — functional plane over a real socketpair or TCP
//                     connection with framing, read on readiness by the
//                     receiving RealExecutor itself (exercises the OS path);
//   * Sim*Channel   — timing plane: delivery is scheduled on the virtual
//                     clock according to a fabric cost model.
// Handlers always run on the receiving endpoint's Executor; protocol engines
// are therefore single-threaded state machines regardless of the plane.
#pragma once

#include <functional>
#include <memory>

#include "common/executor.h"
#include "pdu/pdu.h"

namespace oaf::net {

class MsgChannel {
 public:
  using Handler = std::function<void(pdu::Pdu)>;

  virtual ~MsgChannel() = default;

  /// Asynchronously send a PDU to the peer. Never blocks the caller.
  virtual void send(pdu::Pdu pdu) = 0;

  /// Install the receive handler (must be set before the peer sends).
  virtual void set_handler(Handler handler) = 0;

  /// Close the channel; queued messages may be dropped.
  virtual void close() = 0;

  [[nodiscard]] virtual bool is_open() const = 0;

  /// Executor on which this endpoint's handler runs.
  [[nodiscard]] virtual Executor& executor() = 0;

  // Traffic counters (bytes as encoded on the wire).
  [[nodiscard]] virtual u64 bytes_sent() const = 0;
  [[nodiscard]] virtual u64 pdus_sent() const = 0;
};

using ChannelPair = std::pair<std::unique_ptr<MsgChannel>, std::unique_ptr<MsgChannel>>;

}  // namespace oaf::net
