// AF endpoint: one side's view of an adaptive-fabric connection (paper §4.6).
//
// The endpoint owns the shared-memory data-path state for a connection —
// the lock-free double-buffer ring mapping (§4.4.1) and the zero-copy buffer
// API — and exposes the payload primitives the NVMe-oF engines compose:
//   producer side:  stage_payload (copy into a slot and publish) or
//                   acquire_app_buffer + publish_app_buffer (zero-copy);
//   consumer side:  consume_payload (copy out and release) or
//                   consume_view + release_slot (zero-copy read).
// Control PDUs never pass through here; they ride the TCP channel owned by
// the NVMe-oF engine. When no shm channel was negotiated the engines fall
// back to inline TCP data PDUs and the endpoint is idle — that *is* the
// adaptive selection (paper §4.2).
#pragma once

#include <memory>
#include <vector>

#include "af/config.h"
#include "af/locality.h"
#include "common/executor.h"
#include "net/copier.h"
#include "shm/double_buffer.h"
#include "telemetry/telemetry.h"

namespace oaf::af {

enum class Role { kClient, kTarget };

class AfEndpoint {
 public:
  using Done = std::function<void()>;

  AfEndpoint(Role role, Executor& exec, net::Copier& copier, AfConfig cfg)
      : role_(role), exec_(exec), copier_(copier), cfg_(std::move(cfg)) {
    // Encryption requires both sides to transform payloads, which the
    // zero-copy path bypasses by construction.
    if (cfg_.encrypt_shm) cfg_.zero_copy = false;
    init_telemetry();
  }

  AfEndpoint(const AfEndpoint&) = delete;
  AfEndpoint& operator=(const AfEndpoint&) = delete;

  ~AfEndpoint() { *alive_ = false; }

  /// Wire up the shm channel after the Connection Manager handshake.
  void enable_shm(RegionHandle handle, shm::DoubleBufferRing ring);

  /// True when new payloads should ride the shm ring. Demotion turns this
  /// off while leaving the ring attached so in-flight transfers drain.
  [[nodiscard]] bool shm_ready() const { return ring_.valid() && !demoted_; }

  /// True while the ring is mapped at all — consume paths use this so a
  /// payload already parked in a slot survives a runtime demotion.
  [[nodiscard]] bool shm_attached() const { return ring_.valid(); }

  /// Runtime shm -> TCP demotion (paper's adaptivity extended to run-time):
  /// stop producing into the ring; in-flight slot transfers still complete.
  /// Idempotent. Returns true if this call performed the demotion.
  bool demote_shm();
  [[nodiscard]] bool demoted() const { return demoted_; }

  /// Drop the ring mapping entirely (reconnect teardown). Pending slot
  /// consumers fail; callers must have drained or failed in-flight I/O.
  void detach_shm();

  /// Cheap data-path health probe: the helper's locality page must still
  /// announce exactly the region this endpoint mapped. A revoked or
  /// re-provisioned page fails the check and should trigger demotion.
  [[nodiscard]] bool shm_healthy() const;
  [[nodiscard]] Role role() const { return role_; }
  [[nodiscard]] const AfConfig& config() const { return cfg_; }
  [[nodiscard]] Executor& executor() { return exec_; }

  /// Round-robin slot for command sequence `seq` (paper §4.4.1).
  [[nodiscard]] u32 slot_for(u64 seq) const { return ring_.slot_for(seq); }
  [[nodiscard]] u64 slot_bytes() const { return ring_.slot_size(); }
  [[nodiscard]] u32 slot_count() const { return ring_.slot_count(); }

  /// Raw ring handle. For diagnostics and test fault injection
  /// (shm::ShmFaultRing) only — the staged/zero-copy methods are the data
  /// path; mutating slots through this handle bypasses the protocol.
  [[nodiscard]] shm::DoubleBufferRing& ring() { return ring_; }

  // --- producer side -----------------------------------------------------

  /// Copy `data` into slot `slot` and publish it. `done` fires when the
  /// payload is visible to the peer (copy complete on this plane's clock).
  Status stage_payload(u32 slot, std::span<const u8> data, Done done);

  /// Like stage_payload, but if the slot is still owned by the previous
  /// transfer, poll until it frees. Used by the conservative (chunked) flow,
  /// where one command's chunks reuse a single slot sequentially — the
  /// serialization the shm flow control optimization removes (§4.4.2).
  /// `cancelled` (optional) is checked before each attempt: once it returns
  /// true the transfer is dropped silently (`done` never fires) — an aborted
  /// command must not park a stray payload in a slot a successor will reuse.
  void stage_payload_when_free(u32 slot, std::span<const u8> data, Done done,
                               std::function<bool()> cancelled = nullptr);

  /// Zero-copy: claim slot `slot` and return its buffer for the application
  /// to fill in place (the Buffer Manager "creates the app buffer on shm").
  Result<std::span<u8>> acquire_app_buffer(u32 slot);

  /// Zero-copy: publish `len` bytes already written via acquire_app_buffer.
  /// No copy is charged — that is the entire point (§4.4.3).
  Status publish_app_buffer(u32 slot, u64 len, Done done);

  // --- consumer side -----------------------------------------------------

  /// Copy the published payload of `slot` into `dst` and release the slot.
  /// `done` receives the payload length, or an error status.
  void consume_payload(u32 slot, std::span<u8> dst,
                       std::function<void(Result<u64>)> done);

  /// Zero-copy read: borrow the slot contents. Caller must release_slot()
  /// when the application is done with the data.
  Result<std::span<const u8>> consume_view(u32 slot);

  Status release_slot(u32 slot);

  // --- command-lifetime robustness ----------------------------------------

  /// Drop whatever an aborted command parked in `slot`, in both directions:
  /// a published-but-unconsumed payload is discarded so the slot (and the
  /// cid that owns it) can be reused by the next command. Slots in other
  /// states are left alone (the orphan sweeper age-gates those).
  void abandon_slot(u32 slot);

  /// Reclaim slots stuck in kWriting/kDraining longer than `stuck_after`
  /// (owner died mid-transfer — e.g. a client that froze after
  /// zero_copy_write_begin). Both directions are swept; a slot's age resets
  /// whenever its observed state changes. Returns how many were reclaimed.
  u32 sweep_orphans(DurNs stuck_after);

  // --- stats ---------------------------------------------------------------
  [[nodiscard]] u64 shm_payload_bytes() const { return shm_payload_bytes_; }
  [[nodiscard]] u64 zero_copy_publishes() const { return zero_copy_publishes_; }
  [[nodiscard]] u64 staged_copies() const { return staged_copies_; }
  [[nodiscard]] u64 shm_demotions() const { return shm_demotions_; }
  /// Protocol violations detected on the consume path (kPeerMisbehavior).
  [[nodiscard]] u64 peer_misbehavior() const { return peer_misbehavior_; }
  /// Slots reclaimed from dead owners by sweep_orphans.
  [[nodiscard]] u64 orphan_reclaims() const { return orphan_reclaims_; }

 private:
  [[nodiscard]] shm::Direction produce_dir() const {
    return role_ == Role::kClient ? shm::Direction::kClientToTarget
                                  : shm::Direction::kTargetToClient;
  }
  [[nodiscard]] shm::Direction consume_dir() const {
    return role_ == Role::kClient ? shm::Direction::kTargetToClient
                                  : shm::Direction::kClientToTarget;
  }

  /// The tails of stage_payload and consume_payload once the payload sits
  /// where it belongs (and, on an encrypted channel, is transformed).
  void finish_stage(u32 slot, TimeNs t0, u64 len, const Done& done);
  void finish_consume(u32 slot, TimeNs t0, u64 len,
                      const std::function<void(Result<u64>)>& done);

  /// Count consume-path failures that indicate a misbehaving peer. The
  /// endpoint is the single registry authority for this event (engines call
  /// in here from every consume path, so counting there would double it).
  void note_consume_error(const Status& st) {
    if (st.code() == StatusCode::kPeerMisbehavior) {
      peer_misbehavior_++;
      telemetry::bump(tel_.peer_misbehavior);
    }
  }

  void init_telemetry();

  Role role_;
  Executor& exec_;
  net::Copier& copier_;
  AfConfig cfg_;
  RegionHandle handle_;
  shm::DoubleBufferRing ring_;
  bool demoted_ = false;
  /// Guards deferred work (slot polls, copier completions)
  /// against the endpoint being destroyed mid-run — the association reaper
  /// tears connections down while the executor still holds their lambdas.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

  u64 shm_payload_bytes_ = 0;
  u64 zero_copy_publishes_ = 0;
  u64 staged_copies_ = 0;
  u64 shm_demotions_ = 0;
  u64 peer_misbehavior_ = 0;
  u64 orphan_reclaims_ = 0;

  /// Orphan-sweep age tracking: last observed state and when it was first
  /// seen, per (direction, slot). Lazily sized on the first sweep.
  struct SlotAge {
    u32 state = 0;  // shm::DoubleBufferRing::kFree
    TimeNs since = 0;
  };
  std::vector<SlotAge> slot_age_[2];

  /// Cached process-global telemetry handles (DESIGN.md §9). This endpoint
  /// is the single authority for the shm demotion / peer-misbehavior /
  /// orphan-reclaim counters: every engine path funnels through it.
  struct Tel {
    u32 track = 0;
    telemetry::Counter* staged_copies = nullptr;
    telemetry::Counter* zc_publishes = nullptr;
    telemetry::Counter* zc_consumes = nullptr;
    telemetry::Counter* payload_bytes = nullptr;
    telemetry::Counter* demotions = nullptr;
    telemetry::Counter* peer_misbehavior = nullptr;
    telemetry::Counter* orphan_reclaims = nullptr;
    telemetry::Counter* slot_wait_polls = nullptr;
  } tel_;
  /// Sampled gauges (slot occupancy of this side's produce direction and the
  /// ring handle's epoch-fence reject count). Declared last so they
  /// unregister before any state their callbacks read is torn down.
  telemetry::MetricsRegistry::CallbackHandle occupancy_cb_;
  telemetry::MetricsRegistry::CallbackHandle fence_cb_;
};

}  // namespace oaf::af
