// Multipath I/O: one PathGroup fans a workload out over N independent
// NVMe-oF associations ("paths") to the same subsystem and survives the
// loss of any of them with zero failed I/Os (DESIGN.md §11).
//
// Each path is a full NvmfInitiator — its own control channel, cid space,
// shm negotiation, and resilience ladder. The group adds three things on
// top:
//
//   * ANA-aware selection: every submission snapshots the eligible paths
//     (connected, not recovering, not dead, ANA != inaccessible; optimized
//     preferred over non-optimized) and asks a pluggable PathSelector to
//     pick one.
//   * Seamless failover: a command that fails with a transport-shaped
//     status (kDataTransferError / kAbortedByRequest) is re-driven on a
//     surviving path, up to a redrive budget. The group keys every live
//     command by a group sequence number; erasing the entry before
//     delivering the application callback is the exactly-once fence — a
//     late duplicate completion from a half-dead path finds nothing to
//     complete and is counted, not delivered.
//   * Parking: when no path is currently eligible but not all are dead,
//     submissions wait in a deque and drain the moment a path connects or
//     an ANA notice re-opens one.
//
// A single-path group degenerates to plain NvmfInitiator semantics: the
// one path keeps its own reconnect/replay machinery (there is nowhere else
// to re-drive to), and zero-copy is delegated straight through. With N > 1
// the group disables zero-copy — slot memory dies with its path, so a
// borrowed view could not survive a failover.
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "af/exec_serial.h"
#include "common/executor.h"
#include "nvmf/initiator.h"
#include "nvmf/io_session.h"
#include "nvmf/path_selector.h"
#include "telemetry/telemetry.h"

namespace oaf::nvmf {

struct PathGroupOptions {
  std::string name = "pg0";
  /// Bound on the parked queue (DESIGN.md §12). A submission arriving while
  /// this many commands already wait for a path fails fast with kQueueFull
  /// instead of growing the queue without limit during a long outage.
  /// Deliberately generous: parking is the normal failover buffer; the cap
  /// only exists so memory stays bounded when no path comes back.
  u32 max_parked = 1024;
};

class PathGroup final : public IoSession {
 public:
  PathGroup(Executor& exec, PathGroupOptions opts,
            std::unique_ptr<PathSelector> selector);
  ~PathGroup() override {
    *alive_ = false;
    // Teardown discard: commands still live or parked at destruction were
    // abandoned by the application — deliberately drop their tokens.
    if (connect_cb_) std::move(connect_cb_).drop();
    for (auto& [gseq, cmd] : live_) {
      if (cmd.cb) std::move(cmd.cb).drop();
      if (cmd.identify_cb) std::move(cmd.identify_cb).drop();
    }
  }

  /// Register a path. All paths must be added before connect(); the group
  /// subscribes to the path's lifecycle events here.
  void add_path(std::unique_ptr<NvmfInitiator> path)
      OAF_REQUIRES(exec_serial_);

  /// Dial every path. cb fires once, on the first successful handshake —
  /// the group is usable from that moment; remaining paths join as their
  /// handshakes land.
  void connect(ConnectCb cb) OAF_REQUIRES(exec_serial_);

  // --- IoSession -----------------------------------------------------------
  void write(u32 nsid, u64 slba, std::span<const u8> data, IoCb cb) override
      OAF_REQUIRES(exec_serial_);
  void read(u32 nsid, u64 slba, std::span<u8> out, IoCb cb) override
      OAF_REQUIRES(exec_serial_);
  void flush(u32 nsid, IoCb cb) override OAF_REQUIRES(exec_serial_);
  void identify(u32 nsid, IdentifyCb cb) override OAF_REQUIRES(exec_serial_);
  [[nodiscard]] bool supports_zero_copy() const override
      OAF_REQUIRES_SHARED(exec_serial_) {
    return paths_.size() == 1 && paths_[0].init->supports_zero_copy();
  }
  Result<WriteTicket> zero_copy_write_begin(u64 len) override
      OAF_REQUIRES(exec_serial_);
  void zero_copy_write(const WriteTicket& ticket, u32 nsid, u64 slba, u64 len,
                       IoCb cb) override OAF_REQUIRES(exec_serial_);
  void zero_copy_read(u32 nsid, u64 slba, u64 len, ReadViewCb cb) override
      OAF_REQUIRES(exec_serial_);
  /// True when every currently-eligible path is backing off from target
  /// kQueueFull pushback — the whole group is saturated, so drivers should
  /// pause. An empty eligible set is "parked", not congested.
  [[nodiscard]] bool congested() const override
      OAF_REQUIRES_SHARED(exec_serial_);

  // --- observability -------------------------------------------------------
  [[nodiscard]] size_t path_count() const OAF_REQUIRES_SHARED(exec_serial_) {
    return paths_.size();
  }
  [[nodiscard]] NvmfInitiator& path(size_t i)
      OAF_REQUIRES_SHARED(exec_serial_) {
    return *paths_[i].init;
  }
  [[nodiscard]] const NvmfInitiator& path(size_t i) const
      OAF_REQUIRES_SHARED(exec_serial_) {
    return *paths_[i].init;
  }
  /// Group I/Os currently outstanding on path i.
  [[nodiscard]] u32 path_inflight(size_t i) const
      OAF_REQUIRES_SHARED(exec_serial_) {
    return paths_[i].inflight;
  }
  [[nodiscard]] u64 ios_completed() const OAF_REQUIRES_SHARED(exec_serial_) {
    return ios_completed_;
  }
  [[nodiscard]] u64 failovers() const OAF_REQUIRES_SHARED(exec_serial_) {
    return failovers_;
  }
  [[nodiscard]] u64 redrives() const OAF_REQUIRES_SHARED(exec_serial_) {
    return redrives_;
  }
  [[nodiscard]] u64 parked_total() const OAF_REQUIRES_SHARED(exec_serial_) {
    return parked_total_;
  }
  /// Submissions failed fast with kQueueFull at the max_parked bound.
  [[nodiscard]] u64 park_overflows() const OAF_REQUIRES_SHARED(exec_serial_) {
    return park_overflows_;
  }
  [[nodiscard]] u64 duplicates_suppressed() const
      OAF_REQUIRES_SHARED(exec_serial_) {
    return duplicates_suppressed_;
  }
  [[nodiscard]] size_t parked_now() const OAF_REQUIRES_SHARED(exec_serial_) {
    return parked_.size();
  }
  [[nodiscard]] size_t live_now() const OAF_REQUIRES_SHARED(exec_serial_) {
    return live_.size();
  }
  [[nodiscard]] const char* selector_name() const { return selector_->name(); }
  /// The group's executor-affinity capability (af/exec_serial.h).
  [[nodiscard]] const af::ExecutorSerial& serial() const
      OAF_RETURN_CAPABILITY(exec_serial_) {
    return exec_serial_;
  }

 private:
  struct PathSlot {
    std::unique_ptr<NvmfInitiator> init;
    u32 inflight = 0;  ///< group commands outstanding on this path
    bool was_eligible = false;  ///< cached; edges drive failover accounting
  };

  /// Everything needed to re-issue a command on another path. Buffer spans
  /// are safe to re-use: the IoSession contract keeps application buffers
  /// alive until the final callback, which the group has not delivered yet.
  struct GroupCmd {
    enum class Op : u8 { kWrite, kRead, kFlush, kIdentify } op = Op::kFlush;
    u32 nsid = 0;
    u64 slba = 0;
    std::span<const u8> wdata;
    std::span<u8> rdata;
    IoCb cb;
    IdentifyCb identify_cb;
    u32 redrives = 0;
    u32 path = 0;  ///< current path index (valid while issued, not parked)
    /// When a redrive pulled this command off its path: the gap until it is
    /// re-issued (including any parked wait) is attributed as kDetour —
    /// only the group sees this time, the paths' ledgers never do.
    TimeNs detour_start = 0;
  };
  using LiveMap = std::unordered_map<u64, GroupCmd>;

  [[nodiscard]] bool eligible(const PathSlot& s) const
      OAF_REQUIRES_SHARED(exec_serial_);
  [[nodiscard]] bool all_dead() const OAF_REQUIRES_SHARED(exec_serial_);
  /// Snapshot eligible paths honouring the ANA preference tier; empty when
  /// no path is usable right now.
  [[nodiscard]] std::vector<PathView> eligible_views() const
      OAF_REQUIRES_SHARED(exec_serial_);

  void submit(GroupCmd cmd) OAF_REQUIRES(exec_serial_);
  void dispatch(u64 gseq) OAF_REQUIRES(exec_serial_);
  void issue_on_path(u64 gseq, u32 path_index) OAF_REQUIRES(exec_serial_);
  /// A path's answer for `gseq` (`res` for I/O, `identified` for identify):
  /// drop a late duplicate, re-drive a failure within budget, else finish.
  void on_result(u64 gseq, const IoResult& res,
                 Result<std::pair<u32, u64>> identified)
      OAF_REQUIRES(exec_serial_);
  /// The one way a group command ends: erase, count, deliver — erasing
  /// first is the exactly-once fence (DESIGN.md §11.3).
  void finish(LiveMap::iterator it, const IoResult& res,
              Result<std::pair<u32, u64>> identified)
      OAF_REQUIRES(exec_serial_);
  void on_path_event(u32 path_index, NvmfInitiator::PathEvent e)
      OAF_REQUIRES(exec_serial_);
  void finish_path_accounting(const GroupCmd& cmd)
      OAF_REQUIRES(exec_serial_);
  void note_redrive(u64 gseq, GroupCmd& cmd) OAF_REQUIRES(exec_serial_);
  void drain_parked() OAF_REQUIRES(exec_serial_);
  void fail_all_parked() OAF_REQUIRES(exec_serial_);
  [[nodiscard]] static bool redrivable(const IoResult& res) {
    return res.cpl.status == pdu::NvmeStatus::kDataTransferError ||
           res.cpl.status == pdu::NvmeStatus::kAbortedByRequest;
  }

  Executor& exec_;
  /// Executor-affinity capability: group state and every path it owns live
  /// on one reactor. Path lifecycle handlers and redrive continuations open
  /// with exec_serial_.assume_held(); calls into a path's REQUIRES-annotated
  /// API additionally assert that path's own serial (paths share the
  /// group's reactor by construction — add_path enforces it).
  af::ExecutorSerial exec_serial_;
  PathGroupOptions opts_;
  std::unique_ptr<PathSelector> selector_;
  std::vector<PathSlot> paths_ OAF_GUARDED_BY(exec_serial_);

  LiveMap live_ OAF_GUARDED_BY(exec_serial_);  ///< by gseq; erase = delivered
  std::deque<u64> parked_
      OAF_GUARDED_BY(exec_serial_);  ///< gseqs awaiting a path
  u64 next_gseq_ OAF_GUARDED_BY(exec_serial_) = 1;

  ConnectCb connect_cb_ OAF_GUARDED_BY(exec_serial_);
  bool connected_once_ OAF_GUARDED_BY(exec_serial_) = false;

  u64 ios_completed_ OAF_GUARDED_BY(exec_serial_) = 0;
  u64 failovers_ OAF_GUARDED_BY(exec_serial_) = 0;  ///< eligible paths lost
  u64 redrives_ OAF_GUARDED_BY(exec_serial_) = 0;   ///< re-driven commands
  u64 parked_total_
      OAF_GUARDED_BY(exec_serial_) = 0;  ///< submissions that ever waited
  u64 park_overflows_
      OAF_GUARDED_BY(exec_serial_) = 0;  ///< fast-failed at max_parked
  u64 duplicates_suppressed_
      OAF_GUARDED_BY(exec_serial_) = 0;  ///< late completions fenced
  u32 displaced_
      OAF_GUARDED_BY(exec_serial_) = 0;  ///< in-flight on ineligible paths
  u32 failover_redrives_
      OAF_GUARDED_BY(exec_serial_) = 0;  ///< redrives this failover
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

  struct Tel {
    u32 track = 0;
    telemetry::Counter* failovers = nullptr;
    telemetry::Counter* redrives = nullptr;
    telemetry::Counter* parked = nullptr;
    telemetry::Counter* park_overflow = nullptr;
    telemetry::Counter* duplicates = nullptr;
  } tel_;
  void init_telemetry() OAF_REQUIRES(exec_serial_);
};

}  // namespace oaf::nvmf
