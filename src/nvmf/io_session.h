// The application-facing I/O surface, factored out of NvmfInitiator so a
// workload driver can run unchanged over one connection (NvmfInitiator) or
// over a multipath PathGroup fanning out across several. The types here —
// IoResult, ReadView, WriteTicket — are the exact shapes NvmfInitiator has
// always exposed; they live in the base class so `NvmfInitiator::IoResult`
// spelled anywhere in tests and tools keeps resolving.
#pragma once

#include <functional>
#include <span>
#include <utility>

#include "af/once_callback.h"
#include "common/status.h"
#include "common/types.h"
#include "pdu/nvme_cmd.h"

namespace oaf::nvmf {

class IoSession {
 public:
  /// Logical block size all harness namespaces use.
  static constexpr u32 kBlockSize = 512;

  /// Outcome of one I/O as observed by the application.
  struct IoResult {
    pdu::NvmeCpl cpl;
    DurNs total_ns = 0;        ///< submit -> completion
    DurNs io_time_ns = 0;      ///< device residency (target-reported)
    DurNs target_time_ns = 0;  ///< target processing (target-reported)

    [[nodiscard]] bool ok() const { return cpl.ok(); }
    /// Communication component for the paper's breakdown figures.
    [[nodiscard]] DurNs comm_ns() const {
      const DurNs c = total_ns - static_cast<DurNs>(io_time_ns) -
                      static_cast<DurNs>(target_time_ns);
      return c > 0 ? c : 0;
    }
  };
  /// Completion token: move-only, fires exactly once. Destroying an armed
  /// IoCb without invoking it aborts with a flight dump (af/once_callback.h)
  /// — a lost completion is a crash at the drop site, not a hung issuer.
  using IoCb = af::OnceCallback<void(IoResult)>;

  /// Zero-copy read view: payload lives in the shm slot; call release()
  /// exactly once when done with the data.
  struct ReadView {
    std::span<const u8> data;
    std::function<void()> release;
  };
  using ReadViewCb = af::OnceCallback<void(Result<ReadView>, IoResult)>;

  /// Identify completion: (block_size, num_blocks) on success.
  using IdentifyCb = af::OnceCallback<void(Result<std::pair<u32, u64>>)>;

  /// Connect completion shared by NvmfInitiator and PathGroup.
  using ConnectCb = af::OnceCallback<void(Status)>;

  /// Zero-copy write ticket from zero_copy_write_begin.
  struct WriteTicket {
    u16 cid = 0;
    std::span<u8> buffer;
  };

  virtual ~IoSession() = default;

  // --- data-path API -------------------------------------------------------

  /// Staged write: `data` is copied to the fabric (shm slot or inline PDU).
  /// Must stay alive until the callback fires.
  virtual void write(u32 nsid, u64 slba, std::span<const u8> data, IoCb cb) = 0;

  /// Staged read into `out` (sized to the full transfer length).
  virtual void read(u32 nsid, u64 slba, std::span<u8> out, IoCb cb) = 0;

  virtual void flush(u32 nsid, IoCb cb) = 0;

  /// Identify namespace: cb receives (block_size, num_blocks) on success.
  virtual void identify(u32 nsid, IdentifyCb cb) = 0;

  // --- zero-copy API (paper §4.4.3; requires shm) --------------------------

  /// True when zero-copy buffers are available on this session.
  [[nodiscard]] virtual bool supports_zero_copy() const = 0;

  /// Borrow a write buffer created directly in shared memory. Fill it, then
  /// call zero_copy_write(). At most queue_depth tickets may be outstanding.
  virtual Result<WriteTicket> zero_copy_write_begin(u64 len) = 0;

  /// Submit the write for a ticket from zero_copy_write_begin. `len` bytes
  /// of the ticket buffer are sent with no client-side copy. A ticket dies
  /// with its association: after a reconnect or teardown the write fails
  /// with kDataTransferError.
  virtual void zero_copy_write(const WriteTicket& ticket, u32 nsid, u64 slba,
                               u64 len, IoCb cb) = 0;

  /// Zero-copy read: the completion hands back a view of the shm slot.
  virtual void zero_copy_read(u32 nsid, u64 slba, u64 len, ReadViewCb cb) = 0;

  // --- backpressure (DESIGN.md §12) ----------------------------------------

  /// True while the session is backing off from target kQueueFull pushback.
  /// Well-behaved drivers stop issuing new work until this clears instead of
  /// hammering a saturated target. Default: never congested, so sessions
  /// without an overload path are unchanged.
  [[nodiscard]] virtual bool congested() const { return false; }
};

}  // namespace oaf::nvmf
