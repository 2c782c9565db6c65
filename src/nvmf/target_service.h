// NVMe-oF target service: association lifecycle for one listening target.
//
// Owns the per-client (channel, NvmfTargetConnection) pairs and implements
// the keep-alive side of the resilience layer: an association whose control
// channel closed, or whose host has been silent past its negotiated KATO, is
// garbage-collected — its shm region is revoked and its name becomes free
// again, so the same client can reconnect under the same connection name and
// get a fresh shm grant. Reaping runs on accept() (so a reconnecting client
// never races its own corpse), on explicit reap_expired() calls, and
// optionally on a periodic timer.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nvmf/target.h"

namespace oaf::nvmf {

/// Which association gives up work when the global staging budget crosses
/// its high watermark (DESIGN.md §12).
enum class ShedPolicy {
  kOldestFirst,  ///< the association holding the oldest in-flight command
  kFair,         ///< the association holding the most in-flight commands
};

/// Parse "oldest" / "fair"; anything else falls back to kOldestFirst.
ShedPolicy parse_shed_policy(const std::string& name);

struct TargetServiceOptions {
  af::AfConfig af;
  /// KATO for clients that do not advertise one; 0 = never expire on silence.
  DurNs default_kato_ns = 0;
  /// Periodic reaper interval; 0 disables the timer (reaping still happens
  /// on accept and on explicit reap_expired calls). The timer re-arms
  /// itself, so with the sim scheduler drive it with run_until, not run().
  DurNs reaper_interval_ns = 0;
  /// Stuck window for the orphan-slot sweeper on associations that have no
  /// negotiated KATO; 0 disables sweeping those (KATO associations always
  /// sweep with their KATO as the window).
  DurNs orphan_slot_timeout_ns = 0;

  // --- overload protection (DESIGN.md §12) ---------------------------------
  /// Connect-time admission cap: past this many live associations a new
  /// handshake is answered with ICResp{admitted=false} and closed.
  /// 0 = unlimited.
  u32 max_conns = 0;
  /// Backoff hint carried in the connect rejection.
  u32 reject_retry_after_ms = 100;
  /// Per-connection command/staging budgets, forwarded to every connection.
  u32 max_inflight_cmds = 0;
  u64 max_staging_bytes = 0;
  /// Target-wide staging budget shared by all connections; 0 = unlimited.
  u64 global_staging_bytes = 0;
  /// Occupancy fraction of the global budget at which the reaper starts
  /// shedding admitted commands; <= 0 disables shedding.
  double shed_watermark = 0.9;
  ShedPolicy shed_policy = ShedPolicy::kOldestFirst;
  /// A connection whose oldest in-flight command exceeds this age is a slow
  /// client and is evicted (TermReq + close). 0 = never evict.
  DurNs stall_timeout_ns = 0;
};

class NvmfTargetService {
 public:
  NvmfTargetService(Executor& exec, net::Copier& copier, af::ShmBroker& broker,
                    ssd::Subsystem& subsystem, TargetServiceOptions opts);
  ~NvmfTargetService();

  NvmfTargetService(const NvmfTargetService&) = delete;
  NvmfTargetService& operator=(const NvmfTargetService&) = delete;

  /// Take ownership of a freshly-accepted control channel and serve it as
  /// association `conn_name`. Dead associations (closed or KATO-expired) are
  /// reaped first — including a stale one under the same name, which would
  /// otherwise hold the shm region the new handshake needs.
  NvmfTargetConnection* accept(std::unique_ptr<net::MsgChannel> channel,
                               std::string conn_name);

  /// Destroy every association that is closed or KATO-expired; returns how
  /// many were reaped.
  std::size_t reap_expired();

  /// Arm the periodic reaper (no-op when reaper_interval_ns == 0).
  void start_reaper();

  /// Sweep every live association's shm ring for slots stuck mid-transfer by
  /// a dead owner (the per-association window is its KATO, else
  /// orphan_slot_timeout_ns). Runs from the periodic reaper too. Returns the
  /// number of slots reclaimed.
  u32 sweep_orphan_slots();

  [[nodiscard]] std::size_t active() const { return assocs_.size(); }
  [[nodiscard]] u64 reaped() const { return reaped_; }
  /// Commands served across the service's lifetime, including by
  /// associations that have since been reaped.
  [[nodiscard]] u64 commands_served() const {
    u64 total = retired_commands_;
    for (const auto& a : assocs_) total += a.conn->commands_served();
    return total;
  }
  [[nodiscard]] NvmfTargetConnection* find(const std::string& conn_name);
  /// Advertise a new ANA state on one association (admin drain, rebalance).
  /// Returns false when no live association has that name.
  bool set_ana_state(const std::string& conn_name, pdu::AnaState state,
                     const std::string& reason);
  /// JSON array describing every live association (name, data path, per-
  /// connection counters, liveness). Feeds the live introspection endpoint's
  /// `conns` command. Must run on the executor thread — it walks assocs_.
  [[nodiscard]] std::string conns_json() const;
  /// Orphan slots reclaimed across the service's lifetime (live assocs only;
  /// a reaped association's slots die with its ring).
  [[nodiscard]] u64 orphan_slots_reclaimed() const {
    u64 total = 0;
    for (const auto& a : assocs_) total += a.conn->orphan_slots_reclaimed();
    return total;
  }

  // --- overload protection ---------------------------------------------
  /// The target-wide staging pool every association draws from.
  [[nodiscard]] const af::StagingPool& global_staging() const {
    return global_staging_;
  }
  /// Handshakes turned away at the max_conns cap.
  [[nodiscard]] u64 connects_rejected() const { return connects_rejected_; }
  /// Slow clients evicted by the stall watermark.
  [[nodiscard]] u64 evictions() const { return evictions_; }
  /// kQueueFull rejects across live associations.
  [[nodiscard]] u64 queue_full_rejects() const {
    u64 total = retired_queue_full_;
    for (const auto& a : assocs_) total += a.conn->queue_full_rejects();
    return total;
  }
  /// Admitted commands shed by the watermark ladder, across live assocs.
  [[nodiscard]] u64 commands_shed() const {
    u64 total = retired_shed_;
    for (const auto& a : assocs_) total += a.conn->commands_shed();
    return total;
  }
  /// Run the stall-eviction and watermark-shed ladder once (the periodic
  /// reaper calls this; exposed so tests and tools can force a pass).
  void overload_tick();

 private:
  struct Assoc {
    std::unique_ptr<net::MsgChannel> channel;
    std::unique_ptr<NvmfTargetConnection> conn;
    /// Created only to deliver an ICResp{admitted=false}; never counts
    /// toward the max_conns cap and is reaped as soon as it closes.
    bool reject = false;
  };

  void reaper_tick();
  /// Shed one admitted command according to the configured policy; false
  /// when no association has anything sheddable.
  bool shed_one();

  Executor& exec_;
  net::Copier& copier_;
  af::ShmBroker& broker_;
  ssd::Subsystem& subsystem_;
  TargetServiceOptions opts_;

  /// Parent of every association's staging pool. Declared before assocs_:
  /// each ~NvmfTargetConnection returns its buffers into it.
  af::StagingPool global_staging_;
  std::vector<Assoc> assocs_;
  u64 reaped_ = 0;
  u64 retired_commands_ = 0;  // served by since-reaped associations
  u64 retired_queue_full_ = 0;  // queue-full rejects by reaped associations
  u64 retired_shed_ = 0;        // sheds by reaped associations
  u64 reaper_epoch_ = 0;  // invalidates queued ticks on shutdown
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

  u64 connects_rejected_ = 0;
  u64 evictions_ = 0;

  telemetry::Counter* tel_reaped_ = nullptr;
  telemetry::Counter* tel_connects_rejected_ = nullptr;
  telemetry::Counter* tel_evicted_ = nullptr;
  /// Samples assocs_.size() at exposition time; declared after assocs_ so it
  /// unregisters before the vector is destroyed.
  telemetry::MetricsRegistry::CallbackHandle active_cb_;
  /// Global staging occupancy gauges; declared after global_staging_.
  telemetry::MetricsRegistry::CallbackHandle staging_in_use_cb_;
  telemetry::MetricsRegistry::CallbackHandle staging_capacity_cb_;
};

}  // namespace oaf::nvmf
