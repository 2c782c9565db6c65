#include "nvmf/target_service.h"

#include <algorithm>

#include "common/json.h"
#include "common/log.h"

namespace oaf::nvmf {

ShedPolicy parse_shed_policy(const std::string& name) {
  if (name == "fair") return ShedPolicy::kFair;
  return ShedPolicy::kOldestFirst;
}

NvmfTargetService::NvmfTargetService(Executor& exec, net::Copier& copier,
                                     af::ShmBroker& broker,
                                     ssd::Subsystem& subsystem,
                                     TargetServiceOptions opts)
    : exec_(exec),
      copier_(copier),
      broker_(broker),
      subsystem_(subsystem),
      opts_(std::move(opts)),
      global_staging_("global staging budget", opts_.global_staging_bytes) {
  auto& m = telemetry::metrics();
  tel_reaped_ = m.counter("oaf_target_associations_reaped_total",
                          "Associations garbage-collected (closed channel, "
                          "expired keep-alive, or stale name replaced)");
  tel_connects_rejected_ =
      m.counter("oaf_target_connects_rejected_total",
                "Handshakes answered with ICResp admitted=false at the "
                "max-conns admission cap");
  tel_evicted_ = m.counter(
      "oaf_target_connections_evicted_total",
      "Slow-client associations evicted by the stall watermark");
  active_cb_ = m.callback_gauge(
      "oaf_target_associations_active", "Live associations on this target",
      [this]() -> i64 { return static_cast<i64>(assocs_.size()); });
  staging_in_use_cb_ = m.callback_gauge(
      "oaf_target_staging_in_use_bytes",
      "Bytes held against the target-wide staging budget",
      [this]() -> i64 { return static_cast<i64>(global_staging_.in_use()); });
  staging_capacity_cb_ = m.callback_gauge(
      "oaf_target_staging_capacity_bytes",
      "Capacity of the target-wide staging budget (0 = unlimited)",
      [this]() -> i64 {
        return static_cast<i64>(global_staging_.capacity());
      });
}

NvmfTargetService::~NvmfTargetService() {
  *alive_ = false;
  reaper_epoch_++;
}

NvmfTargetConnection* NvmfTargetService::accept(
    std::unique_ptr<net::MsgChannel> channel, std::string conn_name) {
  // Clear out corpses first: a client reconnecting under its old name needs
  // the stale association gone or the shm provision will collide.
  reap_expired();
  const auto same_name = std::find_if(
      assocs_.begin(), assocs_.end(), [&conn_name](const Assoc& a) {
        return a.conn->connection_name() == conn_name;
      });
  if (same_name != assocs_.end()) {
    OAF_WARN("target service: replacing stale association %s",
             conn_name.c_str());
    reaped_++;
    telemetry::bump(tel_reaped_);
    retired_commands_ += same_name->conn->commands_served();
    retired_queue_full_ += same_name->conn->queue_full_rejects();
    retired_shed_ += same_name->conn->commands_shed();
    assocs_.erase(same_name);
  }

  // Connect-time admission: reject-mode associations exist only to deliver
  // the ICResp{admitted=false} and never count toward the cap themselves.
  std::size_t admitted_count = 0;
  for (const auto& a : assocs_) admitted_count += a.reject ? 0 : 1;
  const bool at_cap =
      opts_.max_conns != 0 && admitted_count >= opts_.max_conns;

  Assoc assoc;
  assoc.channel = std::move(channel);
  TargetOptions topts;
  topts.af = opts_.af;
  topts.connection_name = std::move(conn_name);
  topts.default_kato_ns = opts_.default_kato_ns;
  topts.max_inflight_cmds = opts_.max_inflight_cmds;
  topts.max_staging_bytes = opts_.max_staging_bytes;
  topts.global_staging = &global_staging_;
  if (at_cap) {
    OAF_WARN("target service: rejecting %s at max-conns cap (%zu/%u)",
             topts.connection_name.c_str(), admitted_count, opts_.max_conns);
    topts.reject_connect = true;
    topts.reject_reason = "connection limit reached";
    topts.reject_retry_after_ms = opts_.reject_retry_after_ms;
    assoc.reject = true;
    connects_rejected_++;
    telemetry::bump(tel_connects_rejected_);
  }
  assoc.conn = std::make_unique<NvmfTargetConnection>(
      exec_, *assoc.channel, copier_, broker_, subsystem_, std::move(topts));
  assocs_.push_back(std::move(assoc));
  return assocs_.back().conn.get();
}

std::size_t NvmfTargetService::reap_expired() {
  const TimeNs now = exec_.now();
  std::size_t reaped = 0;
  for (auto it = assocs_.begin(); it != assocs_.end();) {
    if (it->conn->closed() || it->conn->expired(now)) {
      OAF_INFO("target service: reaping association %s (%s)",
               it->conn->connection_name().c_str(),
               it->conn->closed() ? "closed" : "keep-alive expired");
      retired_commands_ += it->conn->commands_served();
      retired_queue_full_ += it->conn->queue_full_rejects();
      retired_shed_ += it->conn->commands_shed();
      it = assocs_.erase(it);  // ~NvmfTargetConnection revokes its shm
      reaped++;
    } else {
      ++it;
    }
  }
  reaped_ += reaped;
  telemetry::bump(tel_reaped_, reaped);
  return reaped;
}

void NvmfTargetService::start_reaper() {
  if (opts_.reaper_interval_ns <= 0) return;
  const u64 epoch = ++reaper_epoch_;
  exec_.schedule_after(opts_.reaper_interval_ns,
                       [this, alive = alive_, epoch] {
                         if (!*alive || epoch != reaper_epoch_) return;
                         reaper_tick();
                       });
}

u32 NvmfTargetService::sweep_orphan_slots() {
  u32 reclaimed = 0;
  for (auto& a : assocs_) {
    reclaimed += a.conn->sweep_orphan_slots(opts_.orphan_slot_timeout_ns);
  }
  if (reclaimed > 0) {
    OAF_WARN("target service: reclaimed %u orphaned shm slot(s)", reclaimed);
  }
  return reclaimed;
}

void NvmfTargetService::overload_tick() {
  const TimeNs now = exec_.now();
  // Slow-client detection: an association whose oldest in-flight command has
  // sat past the stall watermark is holding staging memory hostage — evict
  // it so its budget charges return to the pool.
  if (opts_.stall_timeout_ns > 0) {
    for (auto& a : assocs_) {
      if (a.reject || a.conn->evicted() || a.conn->closed()) continue;
      if (a.conn->oldest_inflight_age(now) > opts_.stall_timeout_ns) {
        evictions_++;
        telemetry::bump(tel_evicted_);
        a.conn->evict("stalled past watermark");
      }
    }
  }
  // Shed ladder: while the global staging budget sits above the high
  // watermark, give up admitted commands one at a time (each shed_oldest
  // releases its charge). Guard bounds the loop against a policy that can
  // no longer find a victim.
  if (opts_.shed_watermark > 0.0) {
    u32 guard = 0;
    while (global_staging_.above(opts_.shed_watermark) && guard < 4096) {
      if (!shed_one()) break;
      guard++;
    }
  }
}

bool NvmfTargetService::shed_one() {
  const TimeNs now = exec_.now();
  NvmfTargetConnection* victim = nullptr;
  if (opts_.shed_policy == ShedPolicy::kFair) {
    // Per-connection fair: the association hoarding the most in-flight
    // commands gives one up, spreading the pain toward heavy users.
    u64 most = 0;
    for (auto& a : assocs_) {
      if (a.reject || a.conn->evicted()) continue;
      const u64 n = a.conn->inflight_now();
      if (n > most) {
        most = n;
        victim = a.conn.get();
      }
    }
  } else {
    // Oldest-first: the association holding the globally oldest command
    // sheds it — drops the work least likely to still have a waiter.
    DurNs oldest = 0;
    for (auto& a : assocs_) {
      if (a.reject || a.conn->evicted()) continue;
      const DurNs age = a.conn->oldest_inflight_age(now);
      if (age > oldest) {
        oldest = age;
        victim = a.conn.get();
      }
    }
  }
  return victim != nullptr && victim->shed_oldest();
}

void NvmfTargetService::reaper_tick() {
  reap_expired();
  sweep_orphan_slots();
  overload_tick();
  const u64 epoch = reaper_epoch_;
  exec_.schedule_after(opts_.reaper_interval_ns,
                       [this, alive = alive_, epoch] {
                         if (!*alive || epoch != reaper_epoch_) return;
                         reaper_tick();
                       });
}

std::string NvmfTargetService::conns_json() const {
  const TimeNs now = exec_.now();
  JsonWriter w;
  w.begin_array();
  for (const auto& a : assocs_) {
    const NvmfTargetConnection& c = *a.conn;
    w.begin_object();
    w.key("name").value(c.connection_name());
    w.key("shm_active").value(c.shm_active());
    w.key("closed").value(c.closed());
    w.key("expired").value(c.expired(now));
    w.key("kato_ns").value(static_cast<i64>(c.kato_ns()));
    w.key("silent_ns").value(static_cast<i64>(now - c.last_heard()));
    w.key("commands_served").value(c.commands_served());
    w.key("r2ts_sent").value(c.r2ts_sent());
    w.key("bytes_read").value(c.bytes_read());
    w.key("bytes_written").value(c.bytes_written());
    w.key("keepalives_answered").value(c.keepalives_answered());
    w.key("digest_errors").value(c.digest_errors());
    w.key("shm_demotions").value(c.shm_demotions());
    w.key("aborts_handled").value(c.aborts_handled());
    w.key("commands_aborted").value(c.commands_aborted());
    w.key("orphan_slots_reclaimed").value(c.orphan_slots_reclaimed());
    w.key("peer_misbehavior").value(c.peer_misbehavior());
    w.key("ana").value(pdu::to_string(c.ana_state()));
    w.key("ana_changes").value(c.ana_changes());
    w.key("inflight_now").value(c.inflight_now());
    w.key("staging_bytes").value(c.staging_bytes());
    w.key("queue_full_rejects").value(c.queue_full_rejects());
    w.key("commands_shed").value(c.commands_shed());
    w.key("evicted").value(c.evicted());
    w.end_object();
  }
  w.end_array();
  return w.take();
}

NvmfTargetConnection* NvmfTargetService::find(const std::string& conn_name) {
  for (auto& a : assocs_) {
    if (a.conn->connection_name() == conn_name) return a.conn.get();
  }
  return nullptr;
}

bool NvmfTargetService::set_ana_state(const std::string& conn_name,
                                      pdu::AnaState state,
                                      const std::string& reason) {
  NvmfTargetConnection* conn = find(conn_name);
  if (conn == nullptr) return false;
  conn->set_ana_state(state, reason);
  return true;
}

}  // namespace oaf::nvmf
