// NVMe-oF initiator (the SPDK "perf client" side, paper §4.6).
//
// One initiator drives one queue pair over one control channel. After the
// Connection Manager handshake the initiator adaptively routes each I/O:
// payloads ride the shared-memory double-buffer ring when the AF endpoint is
// connected, inline TCP data PDUs otherwise — the application never sees the
// difference. Command identifiers double as ring-slot indices (cid in
// [0, queue_depth), assigned round-robin), which realizes the paper's
// round-robin slot selection and guarantees a free slot whenever a cid is
// free. Requests beyond the queue depth are queued internally.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "af/busy_poll.h"
#include "af/config.h"
#include "af/connection_manager.h"
#include "af/endpoint.h"
#include "af/exec_serial.h"
#include "common/rng.h"
#include "common/stats.h"
#include "net/channel.h"
#include "nvmf/deadline_wheel.h"
#include "nvmf/io_session.h"
#include "nvmf/resilience.h"
#include "telemetry/anomaly.h"
#include "telemetry/attribution.h"
#include "telemetry/clock_sync.h"
#include "telemetry/telemetry.h"

namespace oaf::nvmf {

struct InitiatorOptions {
  af::AfConfig af;
  u32 queue_depth = 128;
  std::string connection_name = "conn0";
  /// Per-command timeout; 0 disables. On expiry the abort ladder runs
  /// (abort -> demote -> recover) when `recovery.abort_budget` is set;
  /// otherwise the connection is recovered (or, without reconnection, torn
  /// down) and commands that cannot be replayed complete with
  /// kDataTransferError.
  DurNs command_timeout_ns = 0;
  /// The one per-command recovery policy; disabled by default (legacy
  /// teardown semantics). Reconnection additionally requires the
  /// ChannelFactory constructor.
  RecoveryPolicy recovery;
};

/// One queue pair over one control channel. The application-facing types
/// (IoResult, ReadView, WriteTicket) live in IoSession; `NvmfInitiator::X`
/// keeps resolving to them through the base class.
class NvmfInitiator : public IoSession {
 public:
  /// Produces a fresh control channel to the target; called once per
  /// connection attempt (initial connect and every reconnect).
  using ChannelFactory = std::function<std::unique_ptr<net::MsgChannel>()>;

  /// Legacy constructor: the caller owns the channel. Reconnection is
  /// unavailable — a transport fault tears the association down.
  NvmfInitiator(Executor& exec, net::MsgChannel& control, net::Copier& copier,
                af::ShmBroker& broker, InitiatorOptions opts);

  /// Resilient constructor: the initiator dials through `factory` and can
  /// re-dial after a fault, replaying queued and safely-retryable in-flight
  /// commands under opts.recovery.
  NvmfInitiator(Executor& exec, ChannelFactory factory, net::Copier& copier,
                af::ShmBroker& broker, InitiatorOptions opts);

  ~NvmfInitiator() override {
    *alive_ = false;
    // Hang up so the target can reap this association (and free its slot
    // under the connect admission cap) instead of waiting out the KATO.
    if (control_ != nullptr) control_->close();
    // Teardown discard: the application destroyed the session with work
    // still in flight, abandoning those completions — the one place an
    // armed OnceCallback may be dropped rather than invoked.
    discard_completions(connect_cb_);
    for (Pending& p : inflight_) discard_pending(p);
    for (Pending& p : waiting_) discard_pending(p);
  }

  /// Run the ICReq/ICResp handshake; cb(ok) once the fabric is established
  /// (shm granted or TCP-only fallback — both are success).
  void connect(ConnectCb cb) OAF_REQUIRES(exec_serial_);

  [[nodiscard]] bool connected() const OAF_REQUIRES_SHARED(exec_serial_) {
    return connected_;
  }
  [[nodiscard]] bool shm_active() const { return ep_.shm_ready(); }
  [[nodiscard]] const std::string& connection_name() const {
    return opts_.connection_name;
  }
  [[nodiscard]] const af::AfConfig& config() const { return opts_.af; }
  [[nodiscard]] af::AfEndpoint& endpoint() { return ep_; }
  [[nodiscard]] af::BusyPollGovernor& governor() { return governor_; }
  [[nodiscard]] Executor& executor() { return exec_; }
  /// The executor-affinity capability guarding this engine's state
  /// (af/exec_serial.h). External drivers that own the reactor call
  /// `serial().assume_held()` once at the top of the driving scope.
  [[nodiscard]] const af::ExecutorSerial& serial() const
      OAF_RETURN_CAPABILITY(exec_serial_) {
    return exec_serial_;
  }

  // --- data-path API -------------------------------------------------------

  /// Staged write: `data` is copied to the fabric (shm slot or inline PDU).
  /// Must stay alive until the callback fires.
  void write(u32 nsid, u64 slba, std::span<const u8> data, IoCb cb) override
      OAF_REQUIRES(exec_serial_);

  /// Staged read into `out` (sized to the full transfer length).
  void read(u32 nsid, u64 slba, std::span<u8> out, IoCb cb) override
      OAF_REQUIRES(exec_serial_);

  void flush(u32 nsid, IoCb cb) override OAF_REQUIRES(exec_serial_);

  /// Identify namespace: cb receives (block_size, num_blocks) on success.
  void identify(u32 nsid, IdentifyCb cb) override OAF_REQUIRES(exec_serial_);

  // --- zero-copy API (paper §4.4.3; requires shm) ---------------------------

  /// True when zero-copy buffers are available on this connection. Consults
  /// the endpoint's *effective* config (encryption demotes zero-copy).
  [[nodiscard]] bool supports_zero_copy() const override {
    return ep_.shm_ready() && ep_.config().zero_copy;
  }

  /// Borrow a write buffer created directly in shared memory. Fill it, then
  /// call zero_copy_write(). The buffer belongs to the connection; at most
  /// queue_depth tickets may be outstanding.
  Result<WriteTicket> zero_copy_write_begin(u64 len) override
      OAF_REQUIRES(exec_serial_);

  /// Submit the write for a ticket from zero_copy_write_begin. `len` bytes
  /// of the ticket buffer are sent with no client-side copy.
  void zero_copy_write(const WriteTicket& ticket, u32 nsid, u64 slba, u64 len,
                       IoCb cb) override OAF_REQUIRES(exec_serial_);

  /// Zero-copy read: the completion hands back a view of the shm slot.
  void zero_copy_read(u32 nsid, u64 slba, u64 len, ReadViewCb cb) override
      OAF_REQUIRES(exec_serial_);

  // --- resilience ----------------------------------------------------------

  /// Demote the data path from shm to optimized TCP at run time without
  /// aborting in-flight I/O. The target is notified via a ShmDemote PDU and
  /// stops staging new payloads in slots; transfers already parked in slots
  /// drain normally. No-op when shm is not active.
  void demote_shm(const std::string& reason) OAF_REQUIRES(exec_serial_);

  /// Force recovery as if a transport fault had been detected (testing and
  /// external health monitors). With reconnection disabled this tears the
  /// association down.
  void force_recover(const char* reason) OAF_REQUIRES(exec_serial_) {
    recover(reason);
  }

  [[nodiscard]] bool reconnecting() const OAF_REQUIRES_SHARED(exec_serial_) {
    return reconnecting_;
  }
  [[nodiscard]] const ResilienceCounters& resilience() const
      OAF_REQUIRES_SHARED(exec_serial_) {
    return counters_;
  }

  // --- multipath hooks (DESIGN.md §11) --------------------------------------

  /// Lifecycle notifications a PathGroup subscribes to. Events fire
  /// synchronously from inside the state transition, so a handler must not
  /// re-enter the initiator — post follow-up work to the executor instead.
  enum class PathEvent : u8 {
    kConnected,   ///< handshake done (initial connect or reconnect)
    kRecovering,  ///< transport fault detected; path ineligible from now
    kDead,        ///< torn down for good; in-flight failures follow
    kShmDemoted,  ///< shm lane lost; path now optimized-TCP only
    kAnaChanged,  ///< target advertised a new ANA state
  };
  using PathEventHandler = std::function<void(PathEvent)>;
  void set_event_handler(PathEventHandler h) OAF_REQUIRES(exec_serial_) {
    event_handler_ = std::move(h);
  }

  /// Target-advertised ANA state for this path (AnaLog PDUs, monotonic by
  /// change_seq). A fresh association always restarts optimized.
  [[nodiscard]] pdu::AnaState ana_state() const
      OAF_REQUIRES_SHARED(exec_serial_) {
    return ana_state_;
  }

  /// EWMA of completed-I/O total latency (alpha 1/8); 0 until the first
  /// successful completion. Feeds the latency-aware path selector.
  [[nodiscard]] DurNs latency_ewma_ns() const
      OAF_REQUIRES_SHARED(exec_serial_) {
    return static_cast<DurNs>(latency_ewma_ns_);
  }

  /// Commands occupying cid slots right now (excludes the waiting queue).
  [[nodiscard]] u32 inflight_count() const OAF_REQUIRES_SHARED(exec_serial_) {
    return inflight_count_;
  }

  /// True while this path is backing off from target kQueueFull pushback
  /// (DESIGN.md §12). Drivers should stop issuing new work until it clears;
  /// commands already submitted still complete normally.
  [[nodiscard]] bool congested() const override
      OAF_REQUIRES_SHARED(exec_serial_) {
    return congested_until_ > 0 && exec_.now() < congested_until_;
  }

  /// Multipath escape hatch: give up an in-progress recovery immediately and
  /// fail everything harvested/queued with kDataTransferError so a
  /// surrounding PathGroup can re-drive it on a surviving path instead of
  /// waiting out this path's backoff schedule. No-op unless recovering.
  void abandon_recovery(const char* reason) OAF_REQUIRES(exec_serial_) {
    if (!reconnecting_ || dead_) return;
    abort_connection(reason);
  }

  // --- observability -------------------------------------------------------

  /// True when the target accepted trace-context propagation (ICResp feature
  /// bit): every CapsuleCmd then carries this attempt's trace id so the
  /// target's spans can be stitched under the initiating I/O.
  [[nodiscard]] bool trace_ctx_active() const
      OAF_REQUIRES_SHARED(exec_serial_) {
    return trace_ctx_;
  }

  /// Target-minus-initiator clock-offset estimate, fed by the ICReq/ICResp
  /// exchange and refreshed by every KeepAlive echo.
  [[nodiscard]] const telemetry::ClockSyncEstimator& clock_sync() const {
    return clock_sync_;
  }

  // --- stats ---------------------------------------------------------------
  [[nodiscard]] u64 ios_completed() const OAF_REQUIRES_SHARED(exec_serial_) {
    return ios_completed_;
  }
  [[nodiscard]] u64 control_pdus_sent() const { return control_->pdus_sent(); }
  [[nodiscard]] u64 timeouts() const OAF_REQUIRES_SHARED(exec_serial_) {
    return timeouts_;
  }
  [[nodiscard]] bool dead() const OAF_REQUIRES_SHARED(exec_serial_) {
    return dead_;
  }

 private:
  /// Both public constructors: `control` is the caller's channel, or null
  /// to dial one through `factory`.
  NvmfInitiator(Executor& exec, net::MsgChannel* control,
                ChannelFactory factory, net::Copier& copier,
                af::ShmBroker& broker, InitiatorOptions opts);

  struct Pending {
    pdu::NvmeCmd cmd;
    u64 data_len = 0;
    // staged paths
    std::span<const u8> wdata;  // write source
    std::span<u8> rdata;        // read sink
    bool zero_copy = false;
    IoCb cb;
    ReadViewCb view_cb;
    IdentifyCb identify_cb;
    std::pair<u32, u64> identify_result{0, 0};
    TimeNs submit_time = 0;    // current attempt's submit time
    TimeNs first_submit = -1;  // first attempt's submit time (spans retries;
                               // -1 = not yet submitted, 0 is a valid time)
    u64 bytes_received = 0;   // TCP read reassembly progress
    u64 generation = 0;       // guards timeout callbacks against cid reuse
    u16 gen = 0;              // wire attempt tag (echoed by the target)
    u32 attempts = 0;         // retries consumed from the retry budget
    u32 abort_attempts = 0;   // aborts consumed from the abort budget
    // A zero-copy write ticket, not a command: the association that
    // reserved the cid (0 = not a reservation), and the shm mapping its
    // buffer points into once that association is gone.
    u64 reserved_in = 0;
    std::shared_ptr<void> old_mapping;
    telemetry::StageLedger ledger;  // per-stage latency attribution
  };

  /// One outstanding Abort command (its own cid space, kAbortCidBase+).
  struct AbortCtx {
    u16 victim_cid = 0;
    u64 victim_generation = 0;  // victim identity at abort time
    u16 victim_gen = 0;         // victim's wire attempt tag
  };
  static constexpr u16 kAbortCidBase = 0xF000;

  void on_pdu(pdu::Pdu pdu) OAF_REQUIRES(exec_serial_);
  void on_icresp(const pdu::ICResp& resp) OAF_REQUIRES(exec_serial_);
  void on_r2t(const pdu::R2T& r2t) OAF_REQUIRES(exec_serial_);
  void on_c2h(pdu::Pdu pdu) OAF_REQUIRES(exec_serial_);
  void on_resp(pdu::Pdu pdu) OAF_REQUIRES(exec_serial_);

  void submit_or_queue(Pending pending) OAF_REQUIRES(exec_serial_);
  void start_command(u16 cid) OAF_REQUIRES(exec_serial_);
  void start_write(u16 cid) OAF_REQUIRES(exec_serial_);
  void start_read(u16 cid) OAF_REQUIRES(exec_serial_);
  void send_capsule(u16 cid, bool in_capsule, pdu::DataPlacement placement,
                    std::vector<u8> inline_payload) OAF_REQUIRES(exec_serial_);
  void shm_write_chunk(u16 cid, u16 ttag, u64 offset, u64 end) OAF_REQUIRES(exec_serial_);
  /// The one way a command holding a cid ends (DESIGN.md §8.1). `view` is a
  /// zero-copy read's slot view; a good one keeps the cid until released.
  void complete(u16 cid, const pdu::NvmeCpl& cpl, u64 io_ns, u64 target_ns,
                Result<ReadView>* view = nullptr) OAF_REQUIRES(exec_serial_);
  void release_cid(u16 cid) OAF_REQUIRES(exec_serial_);
  void drain_queue() OAF_REQUIRES(exec_serial_);
  void arm_timeout(u16 cid) OAF_REQUIRES(exec_serial_);
  void abort_connection(const char* reason) OAF_REQUIRES(exec_serial_);
  /// Fail a command that holds no cid (queued, harvested or dead on arrival).
  void fail_pending(Pending& p) OAF_REQUIRES(exec_serial_);
  /// Hand the outcome to the command's one callback; a failed view or
  /// identify gets an error saying `why`.
  static void deliver(Pending& p, const IoResult& res, const char* why,
                      Result<ReadView>* view);

  // Escalation ladder (deadline -> abort -> demote -> reconnect).
  void on_deadline(u16 cid, u64 generation) OAF_REQUIRES(exec_serial_);
  void send_abort(u16 victim_cid) OAF_REQUIRES(exec_serial_);
  void on_abort_timeout(u16 abort_cid) OAF_REQUIRES(exec_serial_);
  void on_abort_resp(u16 abort_cid, const pdu::CapsuleResp& resp) OAF_REQUIRES(exec_serial_);
  [[nodiscard]] u16 alloc_abort_cid() OAF_REQUIRES(exec_serial_);
  /// Wheel granularity: a quarter of the command (and abort) deadline, so
  /// expiries land at most ~25% late. Arbitrary (unused) when no timeout is
  /// configured — the wheel never ticks without armed entries anyway.
  [[nodiscard]] static DurNs wheel_tick_of(const InitiatorOptions& o) {
    if (o.command_timeout_ns <= 0) return 1'000'000;
    const DurNs tick = o.command_timeout_ns / 4;
    return tick > 0 ? tick : 1;
  }
  /// Consume-path failure handling: a kPeerMisbehavior from the ring
  /// demotes the data path immediately (the fencing caught a bad peer).
  void note_shm_consume_failure(const Status& st) OAF_REQUIRES(exec_serial_);

  // Reconnect state machine.
  void recover(const char* reason) OAF_REQUIRES(exec_serial_);
  /// Dial `attempt` after its backoff, but no sooner than `floor`; past
  /// max_attempts the association is torn down instead.
  void schedule_reconnect(u32 attempt, DurNs floor = 0)
      OAF_REQUIRES(exec_serial_);
  void do_reconnect(u32 attempt) OAF_REQUIRES(exec_serial_);
  void send_icreq() OAF_REQUIRES(exec_serial_);
  /// Jittered exponential backoff for `attempt` (1-based) — shared by the
  /// reconnect ladder and kQueueFull command retries, so both pull from the
  /// same deterministic jitter stream.
  [[nodiscard]] DurNs backoff_for_attempt(u32 attempt) OAF_REQUIRES(exec_serial_);
  /// The retry-budget test: association up, replay-safe, attempts left.
  [[nodiscard]] bool replayable(const Pending& p) const OAF_REQUIRES(exec_serial_);
  /// End an attempt, not the command: span end, kDetour, one attempt spent.
  void end_attempt(Pending& p) OAF_REQUIRES(exec_serial_);
  /// The one in-place retry: within budget, end the attempt and restart the
  /// command on its cid — at once, or after a backoff with its deadline
  /// parked when the target answered kQueueFull. False when out of budget.
  bool retry_in_place(u16 cid, bool queue_full) OAF_REQUIRES(exec_serial_);
  [[nodiscard]] bool stale(u16 pdu_gen, const Pending& p) const {
    return pdu_gen != 0 && p.gen != 0 && pdu_gen != p.gen;
  }

  // Keep-alive.
  void schedule_keepalive() OAF_REQUIRES(exec_serial_);
  void keepalive_tick() OAF_REQUIRES(exec_serial_);

  // Retroactive anomaly capture (DESIGN.md §13). On an SLO breach the
  // capture is claimed immediately but written only once the target's half
  // arrives (AnomalyResp) or the fetch times out — either way exactly one
  // file per claim.
  void maybe_capture_anomaly(const Pending& p, i64 total_ns,
                             telemetry::OpClass op) OAF_REQUIRES(exec_serial_);
  void on_anomaly_resp(pdu::Pdu pdu) OAF_REQUIRES(exec_serial_);
  static constexpr DurNs kAnomalyFetchTimeoutNs = 250'000'000;

  /// True while `cid` still carries attempt `generation`: the fence every
  /// deferred continuation passes (the command may have ended or replayed).
  [[nodiscard]] bool holds(u16 cid, u64 generation) const
      OAF_REQUIRES_SHARED(exec_serial_) {
    return cid < inflight_.size() && slot_busy_[cid] &&
           inflight_[cid].generation == generation;
  }

  template <typename Cb>
  static void discard_completions(Cb& cb) {
    if (cb) std::move(cb).drop();
  }
  static void discard_pending(Pending& p) {
    discard_completions(p.cb);
    discard_completions(p.view_cb);
    discard_completions(p.identify_cb);
  }

  Executor& exec_;
  /// Executor-affinity capability (af/exec_serial.h): one logical "lock"
  /// standing for "running on this engine's reactor". Every mutable field
  /// below is OAF_GUARDED_BY(exec_serial_); handlers posted to exec_ open
  /// with exec_serial_.assume_held(), so clang -Wthread-safety rejects any
  /// new code path that touches engine state without first landing on the
  /// reactor. Declared before cm_, which borrows it at construction.
  af::ExecutorSerial exec_serial_;
  std::unique_ptr<net::MsgChannel> owned_control_;  // factory-dialed channel
  net::MsgChannel* control_;                        // never null after ctor
  ChannelFactory factory_;
  af::ConnectionManager cm_;
  af::AfEndpoint ep_;
  af::BusyPollGovernor governor_;
  InitiatorOptions opts_;
  Rng jitter_rng_;

  bool connected_ OAF_GUARDED_BY(exec_serial_) = false;
  ConnectCb connect_cb_ OAF_GUARDED_BY(exec_serial_);
  u32 maxh2cdata_ OAF_GUARDED_BY(exec_serial_) = 128 * 1024;
  bool data_digest_ OAF_GUARDED_BY(exec_serial_) =
      false;  // negotiated for this association
  bool trace_ctx_ OAF_GUARDED_BY(exec_serial_) =
      false;  // negotiated trace-context propagation
  telemetry::ClockSyncEstimator clock_sync_;

  std::vector<Pending> inflight_ OAF_GUARDED_BY(exec_serial_);  // by cid
  std::vector<bool> slot_busy_ OAF_GUARDED_BY(exec_serial_);  // cid alloc map
  u16 next_cid_ OAF_GUARDED_BY(exec_serial_) = 0;  // round-robin cursor
  /// Commands holding no cid: beyond QD, or harvested by recover() (those
  /// go first, in cid order) and waiting for the reconnect.
  std::deque<Pending> waiting_ OAF_GUARDED_BY(exec_serial_);
  DeadlineWheel wheel_
      OAF_GUARDED_BY(exec_serial_);  // per-command + per-abort deadlines
  std::unordered_map<u16, AbortCtx> aborts_
      OAF_GUARDED_BY(exec_serial_);  // by abort cid
  u16 next_abort_cid_ OAF_GUARDED_BY(exec_serial_) = 0;
  u32 consecutive_abort_failures_ OAF_GUARDED_BY(exec_serial_) = 0;
  u64 next_generation_ OAF_GUARDED_BY(exec_serial_) = 1;
  u16 next_gen_ OAF_GUARDED_BY(exec_serial_) = 1;  // wire tags (0 reserved)
  bool dead_ OAF_GUARDED_BY(exec_serial_) = false;  // torn down for good
  u64 association_ OAF_GUARDED_BY(exec_serial_) = 1;  // bumped by recover()

  bool reconnecting_ OAF_GUARDED_BY(exec_serial_) = false;
  u32 reconnect_attempt_ OAF_GUARDED_BY(exec_serial_) = 0;  // being dialed
  TimeNs congested_until_
      OAF_GUARDED_BY(exec_serial_) = 0;  // kQueueFull window end; 0 = clear
  PathEventHandler event_handler_ OAF_GUARDED_BY(exec_serial_);
  pdu::AnaState ana_state_ OAF_GUARDED_BY(exec_serial_) =
      pdu::AnaState::kOptimized;
  u64 ana_change_seq_ OAF_GUARDED_BY(exec_serial_) = 0;  // highest applied
  double latency_ewma_ns_
      OAF_GUARDED_BY(exec_serial_) = 0;  // EWMA of ok-completion total_ns
  u32 inflight_count_ OAF_GUARDED_BY(exec_serial_) = 0;  // busy cid slots
  u64 handshake_epoch_
      OAF_GUARDED_BY(exec_serial_) = 0;  // invalidates stale handshake timers
  u64 ka_epoch_
      OAF_GUARDED_BY(exec_serial_) = 0;  // invalidates ka ticks on teardown
  u64 ka_seq_ OAF_GUARDED_BY(exec_serial_) = 0;
  bool ka_outstanding_ OAF_GUARDED_BY(exec_serial_) = false;
  u32 ka_misses_ OAF_GUARDED_BY(exec_serial_) = 0;
  ResilienceCounters counters_ OAF_GUARDED_BY(exec_serial_);
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

  u64 ios_completed_ OAF_GUARDED_BY(exec_serial_) = 0;
  u64 timeouts_ OAF_GUARDED_BY(exec_serial_) = 0;

  // In-flight anomaly fetch (at most one; claim() rate-limits).
  bool anomaly_fetch_pending_ OAF_GUARDED_BY(exec_serial_) = false;
  u64 anomaly_fetch_epoch_
      OAF_GUARDED_BY(exec_serial_) = 0;  // invalidates fetch-timeout callback
  telemetry::AnomalyContext anomaly_ctx_ OAF_GUARDED_BY(exec_serial_);

  /// Cached process-global telemetry handles (DESIGN.md §9). Counters mirror
  /// `counters_` so the resilience ladder exports uniformly; the trace track
  /// is this connection's initiator lane.
  struct Tel {
    u32 track = 0;
    telemetry::Counter* ios = nullptr;
    telemetry::HistogramMetric* latency = nullptr;
    telemetry::Counter* reconnects = nullptr;
    telemetry::Counter* reconnect_failures = nullptr;
    telemetry::Counter* retried = nullptr;
    telemetry::Counter* ka_sent = nullptr;
    telemetry::Counter* ka_misses = nullptr;
    telemetry::Counter* digest_errors = nullptr;
    telemetry::Counter* deadlines = nullptr;
    telemetry::Counter* aborts_sent = nullptr;
    telemetry::Counter* aborts_ok = nullptr;
    telemetry::Counter* aborts_failed = nullptr;
    telemetry::Counter* cmds_aborted = nullptr;
    telemetry::Counter* ana_changes = nullptr;
    telemetry::Counter* queue_full = nullptr;
    telemetry::Counter* admission_rejects = nullptr;
  } tel_;
  void init_telemetry() OAF_REQUIRES(exec_serial_);
  void fire_event(PathEvent e) OAF_REQUIRES(exec_serial_) {
    if (event_handler_) event_handler_(e);
  }
  /// End the active trace span for an in-flight command (by its generation).
  void trace_end_span(const Pending& p) OAF_REQUIRES(exec_serial_);
};

}  // namespace oaf::nvmf
