// NVMe-oF target connection handler (the SPDK target application, §2.2/4.6).
//
// One NvmfTargetConnection serves one client queue pair: it answers the
// ICReq handshake (delegating shm provisioning to the Connection Manager /
// broker), runs the write flows (in-capsule inline, in-capsule shm slot, or
// conservative R2T with inline-chunk or shm-notify data), serves reads
// (C2HData chunks inline, or a shm slot + out-of-band notification), and
// reports device/processing times in completions for the paper's latency
// breakdowns. A Subsystem shared across connections maps NSIDs to devices.
//
// Resilience extensions: the connection tracks when it last heard from the
// host against a negotiated KATO (so NvmfTargetService can reap dead
// associations), echoes KeepAlive pings, honours runtime ShmDemote notices
// (in-flight slot transfers drain, new data goes inline), verifies the
// optional CRC32C data digest on inline write payloads, and echoes the
// per-attempt gen tag so replayed commands never match stale PDUs.
#pragma once

#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "af/buffer_manager.h"
#include "af/busy_poll.h"
#include "af/config.h"
#include "af/connection_manager.h"
#include "af/exec_serial.h"
#include "af/endpoint.h"
#include "net/channel.h"
#include "ssd/namespace.h"
#include "telemetry/anomaly.h"
#include "telemetry/attribution.h"
#include "telemetry/telemetry.h"

namespace oaf::nvmf {

struct TargetOptions {
  af::AfConfig af;
  std::string connection_name = "conn0";
  /// KATO applied when the client's ICReq does not advertise one;
  /// 0 = the association never expires from silence.
  DurNs default_kato_ns = 0;

  // --- overload protection (DESIGN.md §12) ---------------------------------
  /// Per-connection cap on concurrently in-flight commands; excess is
  /// rejected with kQueueFull before any state is allocated. 0 = unlimited.
  u32 max_inflight_cmds = 0;
  /// Per-connection cap on staging-buffer bytes held by in-flight (and
  /// zombie) commands; 0 = unlimited.
  u64 max_staging_bytes = 0;
  /// Parent of the connection's staging pool: the service's target-wide
  /// pool, which outlives every connection. Null = no global budget.
  af::StagingPool* global_staging = nullptr;
  /// Connect-time admission control: when set, the connection answers the
  /// ICReq with an ICResp carrying admitted=false (plus the reason and
  /// retry hint below) and closes — the service creates reject-mode
  /// connections once it is at --max-conns.
  bool reject_connect = false;
  std::string reject_reason;
  u32 reject_retry_after_ms = 0;

  // --- tail-latency attribution (DESIGN.md §13) ----------------------------
  /// Target-side SLO breaches normally claim a local anomaly capture. When a
  /// host drives two-sided captures for the same breaches (or a single
  /// process hosts both halves and they share one recorder), that local
  /// claim races the host's and consumes its rate-limit budget; setting this
  /// false keeps the watchdog metrics but never claims a capture.
  bool capture_local_breaches = true;
};

class NvmfTargetConnection {
 public:
  NvmfTargetConnection(Executor& exec, net::MsgChannel& control,
                       net::Copier& copier, af::ShmBroker& broker,
                       ssd::Subsystem& subsystem, TargetOptions opts);
  ~NvmfTargetConnection();

  NvmfTargetConnection(const NvmfTargetConnection&) = delete;
  NvmfTargetConnection& operator=(const NvmfTargetConnection&) = delete;

  [[nodiscard]] bool shm_active() const { return ep_.shm_ready(); }
  [[nodiscard]] af::AfEndpoint& endpoint() { return ep_; }
  [[nodiscard]] const std::string& connection_name() const {
    return opts_.connection_name;
  }

  // --- liveness (association reaping) --------------------------------------
  [[nodiscard]] TimeNs last_heard() const OAF_REQUIRES_SHARED(exec_serial_) {
    return last_heard_;
  }
  [[nodiscard]] DurNs kato_ns() const OAF_REQUIRES_SHARED(exec_serial_) {
    return kato_ns_;
  }
  /// KATO expired: the host has been silent longer than the association's
  /// keep-alive timeout allows.
  [[nodiscard]] bool expired(TimeNs now) const
      OAF_REQUIRES_SHARED(exec_serial_) {
    return kato_ns_ > 0 && now - last_heard_ > kato_ns_;
  }
  /// The control channel is gone (client closed or crashed).
  [[nodiscard]] bool closed() const { return !control_.is_open(); }

  // --- multipath (ANA) -----------------------------------------------------
  /// Advertise a new ANA state for this path. Sends an AnaLog PDU with the
  /// next monotonic change_seq; no-op if the state is unchanged. The target
  /// keeps serving whatever arrives in every state — ANA is advisory
  /// steering for the initiator's selector, never admission control.
  void set_ana_state(pdu::AnaState state, const std::string& reason)
      OAF_REQUIRES(exec_serial_);
  [[nodiscard]] pdu::AnaState ana_state() const
      OAF_REQUIRES_SHARED(exec_serial_) {
    return ana_state_;
  }
  [[nodiscard]] u64 ana_changes() const OAF_REQUIRES_SHARED(exec_serial_) {
    return ana_change_seq_;
  }

  // --- command-lifetime robustness -----------------------------------------
  /// Reclaim shm slots stuck mid-transfer by a dead peer. The stuck window
  /// is this association's KATO (the owner is provably unreachable once it
  /// expires), or `fallback` when no KATO was negotiated. Returns the number
  /// of slots reclaimed.
  u32 sweep_orphan_slots(DurNs fallback) OAF_REQUIRES(exec_serial_);

  // --- overload protection -------------------------------------------------
  /// Commands currently in flight on this association.
  [[nodiscard]] u64 inflight_now() const OAF_REQUIRES_SHARED(exec_serial_) {
    return inflight_.size();
  }
  /// Staging bytes currently charged to this association (incl. zombies).
  [[nodiscard]] u64 staging_bytes() const OAF_REQUIRES_SHARED(exec_serial_) {
    return staging_.in_use();
  }
  /// Age of the oldest in-flight command, 0 when idle. A connection whose
  /// oldest command is stuck past the service's stall watermark is a slow
  /// client: it is not draining responses (or its shm consumer wedged) and
  /// is pinning staging memory everyone else needs.
  [[nodiscard]] DurNs oldest_inflight_age(TimeNs now) const
      OAF_REQUIRES_SHARED(exec_serial_);
  /// Shed one admitted-but-not-yet-executing command (oldest first),
  /// completing it with retryable kQueueFull. Returns false when every
  /// in-flight command is pinned by the device or an shm copy.
  bool shed_oldest() OAF_REQUIRES(exec_serial_);
  /// Terminate the association (TermReq + close); the next reap collects
  /// it. Used by the service's slow-client escalation.
  void evict(const std::string& reason) OAF_REQUIRES(exec_serial_);
  [[nodiscard]] bool evicted() const OAF_REQUIRES_SHARED(exec_serial_) {
    return evicted_;
  }

  /// True for a reject-mode association: it exists only to deliver the
  /// ICResp{admitted=false} verdict and then close.
  [[nodiscard]] bool connect_rejected() const { return opts_.reject_connect; }

  /// This connection's executor-affinity capability (af/exec_serial.h).
  /// The owning service drives reaping/sweeps from the same reactor and
  /// asserts this before calling the REQUIRES-annotated API above.
  [[nodiscard]] const af::ExecutorSerial& serial() const
      OAF_RETURN_CAPABILITY(exec_serial_) {
    return exec_serial_;
  }

  // --- stats ---------------------------------------------------------------
  [[nodiscard]] u64 commands_served() const
      OAF_REQUIRES_SHARED(exec_serial_) {
    return commands_served_;
  }
  [[nodiscard]] u64 queue_full_rejects() const
      OAF_REQUIRES_SHARED(exec_serial_) {
    return queue_full_rejects_;
  }
  [[nodiscard]] u64 commands_shed() const OAF_REQUIRES_SHARED(exec_serial_) {
    return commands_shed_;
  }
  [[nodiscard]] u64 r2ts_sent() const OAF_REQUIRES_SHARED(exec_serial_) {
    return r2ts_sent_;
  }
  [[nodiscard]] u64 bytes_read() const OAF_REQUIRES_SHARED(exec_serial_) {
    return bytes_read_;
  }
  [[nodiscard]] u64 bytes_written() const OAF_REQUIRES_SHARED(exec_serial_) {
    return bytes_written_;
  }
  [[nodiscard]] u64 keepalives_answered() const
      OAF_REQUIRES_SHARED(exec_serial_) {
    return keepalives_answered_;
  }
  [[nodiscard]] u64 digest_errors() const OAF_REQUIRES_SHARED(exec_serial_) {
    return digest_errors_;
  }
  [[nodiscard]] u64 shm_demotions() const { return ep_.shm_demotions(); }
  [[nodiscard]] u64 aborts_handled() const
      OAF_REQUIRES_SHARED(exec_serial_) {
    return aborts_handled_;
  }
  [[nodiscard]] u64 commands_aborted() const
      OAF_REQUIRES_SHARED(exec_serial_) {
    return commands_aborted_;
  }
  [[nodiscard]] u64 orphan_slots_reclaimed() const {
    return ep_.orphan_reclaims();
  }
  [[nodiscard]] u64 peer_misbehavior() const { return ep_.peer_misbehavior(); }

 private:
  /// Per-command transfer context (conservative-flow writes and reads).
  struct IoCtx {
    pdu::NvmeCmd cmd;
    af::StagingBuffer buffer; ///< staging for the device, and its charge
    u64 bytes_received = 0;   ///< write reassembly progress
    u64 next_offset = 0;      ///< where the next H2CData chunk must start
    TimeNs arrival = 0;       ///< capsule arrival time (target_time base)
    DurNs copy_wait = 0;      ///< data-path (shm copy) residency — reported
                              ///< as communication time, not processing
    u16 gen = 0;              ///< client attempt tag, echoed in every reply
    u64 seq = 0;              ///< unique per capsule: fences device callbacks
                              ///< against an abort recycling the cid
    u64 span = 0;             ///< trace span id: the wire trace id when the
                              ///< host propagated one, else the local seq.
                              ///< Never used for fencing — only for tracing.
    bool device_busy = false; ///< the device holds `buffer` right now
    u32 copies_in_flight = 0; ///< shm consumes targeting `buffer` right now
    telemetry::StageLedger ledger;  ///< target-side stage attribution
  };

  void on_pdu(pdu::Pdu pdu) OAF_REQUIRES(exec_serial_);
  void on_icreq(const pdu::ICReq& req) OAF_REQUIRES(exec_serial_);
  void on_capsule(pdu::Pdu pdu) OAF_REQUIRES(exec_serial_);
  void on_h2c(pdu::Pdu pdu) OAF_REQUIRES(exec_serial_);

  void start_device_write(u16 cid) OAF_REQUIRES(exec_serial_);
  void handle_read(u16 cid) OAF_REQUIRES(exec_serial_);
  void shm_read_chunk(u16 cid, u64 offset, pdu::NvmeCpl cpl, DurNs io_time)
      OAF_REQUIRES(exec_serial_);
  void handle_admin(u16 cid) OAF_REQUIRES(exec_serial_);
  void handle_abort(u16 cid) OAF_REQUIRES(exec_serial_);
  /// The one way a command ends early (abort or shed): a staging buffer the
  /// device or an shm copy still uses parks as a zombie, an idle command's
  /// slot is abandoned, late transfer PDUs are fenced, and `status` is sent.
  void cancel(u16 cid, pdu::NvmeStatus status) OAF_REQUIRES(exec_serial_);
  void finish_read(IoCtx& ctx, pdu::NvmeCpl cpl, DurNs io_time)
      OAF_REQUIRES(exec_serial_);

  /// Consume-path failure: kPeerMisbehavior means the fencing caught a bad
  /// peer — demote the data path and tell the host to stop producing too.
  void note_consume_failure(const Status& st) OAF_REQUIRES(exec_serial_);

  void send_resp(u16 cid, const pdu::NvmeCpl& cpl, DurNs io_time,
                 std::vector<u8> payload = {}) OAF_REQUIRES(exec_serial_);
  /// The one way a served command ends: span end, attribution, erase with
  /// its staging charge returned, served counter. Build the reply first.
  void retire(u16 cid) OAF_REQUIRES(exec_serial_);
  /// The command `seq` if it still holds `cid`, else null: the cid-reuse
  /// fence every device, consume and stage continuation passes.
  [[nodiscard]] IoCtx* live(u16 cid, u64 seq) OAF_REQUIRES(exec_serial_);
  /// Head of every device completion: device span end, zombie drop, fence.
  /// Returns the command (now off the device), or null if it was aborted.
  IoCtx* device_done(u16 cid, u64 seq, u64 span) OAF_REQUIRES(exec_serial_);
  /// The same for an shm consume; a short or failed copy fails the command.
  IoCtx* consume_done(u16 cid, u64 seq, const Result<u64>& got, u64 len)
      OAF_REQUIRES(exec_serial_);
  void send_term(const std::string& reason) OAF_REQUIRES(exec_serial_);

  /// Serve the peer's half of an anomaly capture from the local ring,
  /// timestamps pre-corrected onto the requester's clock.
  void on_anomaly_req(const pdu::AnomalyReq& req) OAF_REQUIRES(exec_serial_);
  /// Fold a finished command into the attribution window; on a target-side
  /// SLO breach, capture locally (no reverse fetch — the host owns the
  /// cross-process capture).
  void record_attribution(const IoCtx& ctx) OAF_REQUIRES(exec_serial_);

  /// Budget denial: answer `cid` with retryable kQueueFull without ever
  /// creating an IoCtx (the whole point is to allocate nothing).
  void reject_queue_full(u16 cid, u16 gen, const char* why)
      OAF_REQUIRES(exec_serial_);

  [[nodiscard]] u64 target_time(const IoCtx& ctx, DurNs io_time) const
      OAF_REQUIRES_SHARED(exec_serial_);

  Executor& exec_;
  /// Executor-affinity capability (af/exec_serial.h): this connection's
  /// state is single-reactor. PDU delivery, device completions, and shm
  /// consume continuations all assert it; any new off-reactor touch fails
  /// clang -Wthread-safety. Declared before cm_, which borrows it.
  af::ExecutorSerial exec_serial_;
  net::MsgChannel& control_;
  af::ConnectionManager cm_;
  af::AfEndpoint ep_;
  af::BusyPollGovernor governor_;  ///< the target busy-polls its socket too
  ssd::Subsystem& subsystem_;
  TargetOptions opts_;

  /// Admits and provides every command's staging bytes. Declared before
  /// every holder of its buffers, so they all release into a live pool.
  af::StagingPool staging_ OAF_GUARDED_BY(exec_serial_);
  std::unordered_map<u16, IoCtx> inflight_ OAF_GUARDED_BY(exec_serial_);
  /// Cids whose command was aborted while transfer PDUs could still be in
  /// flight: late H2CData for them is discarded instead of terminating the
  /// association. An entry clears when its cid is reused.
  std::unordered_set<u16> recently_aborted_ OAF_GUARDED_BY(exec_serial_);
  /// Staging buffers of aborted commands whose device I/O is still running;
  /// keyed by ctx seq and dropped when the (swallowed) completion fires.
  /// The charge travels with the buffer: the memory is still pinned.
  std::unordered_map<u64, af::StagingBuffer> zombie_buffers_
      OAF_GUARDED_BY(exec_serial_);
  u64 next_ctx_seq_ OAF_GUARDED_BY(exec_serial_) = 1;
  TimeNs last_heard_ OAF_GUARDED_BY(exec_serial_) = 0;
  DurNs kato_ns_ OAF_GUARDED_BY(exec_serial_) = 0;
  bool data_digest_ OAF_GUARDED_BY(exec_serial_) = false;
  pdu::AnaState ana_state_ OAF_GUARDED_BY(exec_serial_) =
      pdu::AnaState::kOptimized;
  u64 ana_change_seq_
      OAF_GUARDED_BY(exec_serial_) = 0;  ///< notices sent; monotonic
  /// Guards device completions and shm-copy continuations against the
  /// association reaper destroying this connection while they are queued.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

  bool evicted_ OAF_GUARDED_BY(exec_serial_) = false;

  u64 commands_served_ OAF_GUARDED_BY(exec_serial_) = 0;
  u64 queue_full_rejects_ OAF_GUARDED_BY(exec_serial_) = 0;
  u64 commands_shed_ OAF_GUARDED_BY(exec_serial_) = 0;
  u64 r2ts_sent_ OAF_GUARDED_BY(exec_serial_) = 0;
  u64 bytes_read_ OAF_GUARDED_BY(exec_serial_) = 0;
  u64 bytes_written_ OAF_GUARDED_BY(exec_serial_) = 0;
  u64 keepalives_answered_ OAF_GUARDED_BY(exec_serial_) = 0;
  u64 digest_errors_ OAF_GUARDED_BY(exec_serial_) = 0;
  u64 aborts_handled_ OAF_GUARDED_BY(exec_serial_) = 0;
  u64 commands_aborted_ OAF_GUARDED_BY(exec_serial_) = 0;

  /// Cached process-global telemetry handles (DESIGN.md §9). The trace track
  /// is this connection's target lane; spans pair with the initiator's via
  /// the shared timeline.
  struct Tel {
    u32 track = 0;
    telemetry::Counter* commands = nullptr;
    telemetry::Counter* r2ts = nullptr;
    telemetry::Counter* bytes_read = nullptr;
    telemetry::Counter* bytes_written = nullptr;
    telemetry::Counter* keepalives = nullptr;
    telemetry::Counter* digest_errors = nullptr;
    telemetry::Counter* aborts_handled = nullptr;
    telemetry::Counter* cmds_aborted = nullptr;
    telemetry::Counter* queue_full = nullptr;
    telemetry::Counter* shed = nullptr;
  } tel_;
  void init_telemetry() OAF_REQUIRES(exec_serial_);
};

}  // namespace oaf::nvmf
