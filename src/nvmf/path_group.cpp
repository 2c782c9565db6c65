#include "nvmf/path_group.h"

#include <algorithm>

#include "common/log.h"

namespace oaf::nvmf {

void PathGroup::init_telemetry() {
  auto& m = telemetry::metrics();
  tel_.track = telemetry::tracer().track("pg:" + opts_.name);
  tel_.failovers = m.counter("oaf_pathgroup_failovers_total",
                             "Eligible paths lost to faults or ANA");
  tel_.redrives = m.counter("oaf_pathgroup_redrives_total",
                            "Commands re-driven onto another path");
  tel_.parked = m.counter("oaf_pathgroup_parked_total",
                          "Submissions that waited for an eligible path");
  tel_.park_overflow =
      m.counter("oaf_pathgroup_park_overflow_total",
                "Submissions failed fast at the kMaxParked bound");
  tel_.duplicates =
      m.counter("oaf_pathgroup_duplicates_suppressed_total",
                "Late completions fenced by the group sequence map");
}

PathGroup::PathGroup(Executor& exec, PathGroupOptions opts,
                     std::unique_ptr<PathSelector> selector)
    : exec_(exec), opts_(std::move(opts)), selector_(std::move(selector)) {
  if (!selector_) selector_ = std::make_unique<RoundRobinSelector>();
  init_telemetry();
}

void PathGroup::add_path(std::unique_ptr<NvmfInitiator> path) {
  const u32 index = static_cast<u32>(paths_.size());
  // Contract: the path runs on the group's reactor, so holding the group's
  // serial implies holding the path's. TSA cannot see that aliasing across
  // objects; assert the path's capability explicitly where it is borrowed.
  path->serial().assume_held();
  path->set_event_handler(
      [this, alive = alive_, index](NvmfInitiator::PathEvent e) {
        exec_serial_.assume_held();  // events fire on the shared reactor
        if (*alive) on_path_event(index, e);
      });
  PathSlot slot;
  slot.init = std::move(path);
  paths_.push_back(std::move(slot));
}

void PathGroup::connect(ConnectCb cb) {
  connect_cb_ = std::move(cb);
  // Per-path completion is observed through the kConnected event (which
  // also covers reconnects); the per-call callback has nothing to add.
  for (auto& s : paths_) {
    s.init->serial().assume_held();  // shared reactor (add_path contract)
    s.init->connect([](Status) {});
  }
}

// --------------------------------------------------------------------------
// Eligibility and selection
// --------------------------------------------------------------------------

bool PathGroup::eligible(const PathSlot& s) const {
  s.init->serial().assume_held();  // shared reactor (add_path contract)
  return s.init->connected() && !s.init->reconnecting() && !s.init->dead() &&
         s.init->ana_state() != pdu::AnaState::kInaccessible;
}

bool PathGroup::all_dead() const {
  for (const auto& s : paths_) {
    s.init->serial().assume_held();  // shared reactor (add_path contract)
    if (!s.init->dead()) return false;
  }
  return !paths_.empty();
}

std::vector<PathView> PathGroup::eligible_views() const {
  std::vector<PathView> views;
  bool any_optimized = false;
  for (u32 i = 0; i < paths_.size(); ++i) {
    const PathSlot& s = paths_[i];
    s.init->serial().assume_held();  // shared reactor (add_path contract)
    if (!eligible(s)) continue;
    PathView v;
    v.index = i;
    v.ana = s.init->ana_state();
    v.inflight = s.inflight;
    v.ewma_ns = s.init->latency_ewma_ns();
    v.shm_active = s.init->shm_active();
    any_optimized |= v.ana == pdu::AnaState::kOptimized;
    views.push_back(v);
  }
  // ANA preference tier: while any optimized path is usable, non-optimized
  // paths are held in reserve rather than mixed in.
  if (any_optimized) {
    std::erase_if(views, [](const PathView& v) {
      return v.ana != pdu::AnaState::kOptimized;
    });
  }
  return views;
}

// --------------------------------------------------------------------------
// Submission / failover
// --------------------------------------------------------------------------

void PathGroup::submit(GroupCmd cmd) {
  const u64 gseq = next_gseq_++;
  live_.emplace(gseq, std::move(cmd));
  dispatch(gseq);
}

void PathGroup::dispatch(u64 gseq) {
  const auto it = live_.find(gseq);
  if (it == live_.end()) return;
  const auto views = eligible_views();
  if (views.empty()) {
    if (all_dead()) {
      IoResult res;
      res.cpl.status = pdu::NvmeStatus::kDataTransferError;
      finish(it, res, make_error(StatusCode::kUnavailable, "all paths dead"));
      return;
    }
    // No path right now, but at least one may come back: wait, in order —
    // unless the parked queue is already at its bound, in which case this
    // submission fails fast with retryable backpressure instead of growing
    // the queue without limit (DESIGN.md §12).
    if (parked_.size() >= kMaxParked) {
      park_overflows_++;
      telemetry::bump(tel_.park_overflow);
      telemetry::tracer().instant(tel_.track, "overload", "park_overflow",
                                  gseq, exec_.now());
      OAF_WARN_RL("pathgroup %s: parked queue full (%zu), failing fast",
                  opts_.name.c_str(), parked_.size());
      IoResult res;
      res.cpl.status = pdu::NvmeStatus::kQueueFull;
      finish(it, res,
             make_error(StatusCode::kResourceExhausted, "parked queue full"));
      return;
    }
    parked_.push_back(gseq);
    parked_total_++;
    telemetry::bump(tel_.parked);
    return;
  }
  const size_t pick = selector_->pick(views) % views.size();
  issue_on_path(gseq, views[pick].index);
}

void PathGroup::issue_on_path(u64 gseq, u32 path_index) {
  GroupCmd& cmd = live_[gseq];
  if (cmd.detour_start != 0) {
    if (cmd.op == GroupCmd::Op::kWrite || cmd.op == GroupCmd::Op::kRead) {
      telemetry::attribution().record_detour(exec_.now() - cmd.detour_start,
                                             exec_.now());
    }
    cmd.detour_start = 0;
  }
  cmd.path = path_index;
  PathSlot& slot = paths_[path_index];
  slot.inflight++;
  NvmfInitiator& init = *slot.init;
  init.serial().assume_held();  // shared reactor (add_path contract)
  if (cmd.op == GroupCmd::Op::kIdentify) {
    init.identify(cmd.nsid, [this, alive = alive_,
                             gseq](Result<std::pair<u32, u64>> r) {
      exec_serial_.assume_held();  // completions deliver on the reactor
      if (*alive) on_result(gseq, IoResult{}, std::move(r));
    });
    return;
  }
  auto cb = [this, alive = alive_, gseq](IoResult res) {
    exec_serial_.assume_held();  // completions deliver on the reactor
    // An I/O has no identify callback, so `identified` is never delivered.
    if (*alive) on_result(gseq, res, Status(StatusCode::kUnavailable));
  };
  switch (cmd.op) {
    case GroupCmd::Op::kWrite:
      init.write(cmd.nsid, cmd.slba, cmd.wdata, std::move(cb));
      break;
    case GroupCmd::Op::kRead:
      init.read(cmd.nsid, cmd.slba, cmd.rdata, std::move(cb));
      break;
    case GroupCmd::Op::kFlush:
      init.flush(cmd.nsid, std::move(cb));
      break;
    case GroupCmd::Op::kIdentify:
      break;  // handled above
  }
}

void PathGroup::finish_path_accounting(const GroupCmd& cmd) {
  PathSlot& slot = paths_[cmd.path];
  if (slot.inflight > 0) slot.inflight--;
  // Failover bookkeeping: once every command that was in flight on a
  // now-ineligible path has resolved (re-driven or delivered), the detour
  // is over.
  if (displaced_ > 0 && !eligible(slot)) {
    displaced_--;
    if (displaced_ == 0) {
      telemetry::tracer().instant(
          tel_.track, "multipath", "failover_complete", failover_redrives_,
          exec_.now(), "redrives", static_cast<i64>(failover_redrives_));
      failover_redrives_ = 0;
    }
  }
}

void PathGroup::note_redrive(u64 gseq, GroupCmd& cmd) {
  cmd.detour_start = exec_.now();
  redrives_++;
  failover_redrives_++;
  telemetry::bump(tel_.redrives);
  telemetry::tracer().instant(tel_.track, "multipath", "redrive", gseq,
                              exec_.now());
}

void PathGroup::finish(LiveMap::iterator it, const IoResult& res,
                       Result<std::pair<u32, u64>> identified) {
  GroupCmd done = std::move(it->second);
  live_.erase(it);  // fence BEFORE delivering: a late duplicate finds nothing
  ios_completed_++;
  if (done.identify_cb) {
    std::move(done.identify_cb)(std::move(identified));
  } else if (done.cb) {
    std::move(done.cb)(res);
  }
}

void PathGroup::on_result(u64 gseq, const IoResult& res,
                          Result<std::pair<u32, u64>> identified) {
  const auto it = live_.find(gseq);
  if (it == live_.end()) {
    // Exactly-once fence: the command was already delivered (or re-driven
    // and delivered elsewhere); this is a late duplicate from a path that
    // died mid-completion. Count it, never surface it.
    duplicates_suppressed_++;
    telemetry::bump(tel_.duplicates);
    return;
  }
  finish_path_accounting(it->second);
  // Fail over, never retry: the path already spent the command's retry
  // budget, so only a path that died hands its commands on. It never comes
  // back, which bounds the moves by the path count.
  const bool failed = it->second.op == GroupCmd::Op::kIdentify ? !identified
                                                               : !res.ok();
  NvmfInitiator& carrier = *paths_[it->second.path].init;
  carrier.serial().assume_held();  // shared reactor (add_path contract)
  if (failed && carrier.dead() && !all_dead()) {
    note_redrive(gseq, it->second);
    dispatch(gseq);  // re-selects; parks if no path is up right now
    return;
  }
  finish(it, res, std::move(identified));
}

// --------------------------------------------------------------------------
// Path lifecycle
// --------------------------------------------------------------------------

void PathGroup::on_path_event(u32 path_index, NvmfInitiator::PathEvent e) {
  PathSlot& slot = paths_[path_index];
  const bool now_eligible = eligible(slot);
  if (slot.was_eligible && !now_eligible) {
    failovers_++;
    telemetry::bump(tel_.failovers);
    displaced_ += slot.inflight;
    telemetry::tracer().instant(
        tel_.track, "multipath", "failover_start", path_index, exec_.now(),
        "inflight", static_cast<i64>(slot.inflight));
    OAF_WARN("pathgroup %s: path %u lost (%u in flight)", opts_.name.c_str(),
             path_index, slot.inflight);
    if (slot.inflight == 0) {
      // Nothing was riding the path; the failover is instantaneous.
      telemetry::tracer().instant(tel_.track, "multipath",
                                  "failover_complete", 0, exec_.now(),
                                  "redrives", 0);
    }
  }
  slot.was_eligible = now_eligible;

  switch (e) {
    case NvmfInitiator::PathEvent::kConnected:
      if (!connected_once_) {
        connected_once_ = true;
        if (connect_cb_) {
          auto cb = std::move(connect_cb_);
          std::move(cb)(Status::ok());
        }
      }
      drain_parked();
      break;
    case NvmfInitiator::PathEvent::kAnaChanged:
      drain_parked();
      break;
    case NvmfInitiator::PathEvent::kRecovering:
      // Fast failover: when another path can carry the load, don't wait out
      // this path's backoff ladder — abandon its recovery so the harvested
      // commands fail out immediately and get re-driven. Posted because the
      // event fires from inside recover(), which must finish harvesting
      // before the association is torn down under it. With no other path
      // (N == 1, or everything else down) the path keeps its own reconnect
      // machinery — the degenerate single-path behaviour.
      if (!eligible_views().empty()) {
        exec_.post([this, alive = alive_, path_index] {
          exec_serial_.assume_held();
          if (!*alive) return;
          NvmfInitiator& init = *paths_[path_index].init;
          init.serial().assume_held();  // shared reactor
          init.abandon_recovery("multipath failover");
        });
      }
      break;
    case NvmfInitiator::PathEvent::kDead:
      if (all_dead()) fail_all_parked();
      break;
    case NvmfInitiator::PathEvent::kShmDemoted:
      break;  // selectors see shm_active per snapshot; nothing to do now
  }
}

void PathGroup::drain_parked() {
  while (!parked_.empty() && !eligible_views().empty()) {
    const u64 gseq = parked_.front();
    parked_.pop_front();
    dispatch(gseq);
  }
}

void PathGroup::fail_all_parked() {
  while (!parked_.empty()) {
    const u64 gseq = parked_.front();
    parked_.pop_front();
    const auto it = live_.find(gseq);
    if (it == live_.end()) continue;
    IoResult res;
    res.cpl.status = pdu::NvmeStatus::kDataTransferError;
    finish(it, res, make_error(StatusCode::kUnavailable, "all paths dead"));
  }
}

// --------------------------------------------------------------------------
// IoSession surface
// --------------------------------------------------------------------------

void PathGroup::write(u32 nsid, u64 slba, std::span<const u8> data, IoCb cb) {
  GroupCmd cmd;
  cmd.op = GroupCmd::Op::kWrite;
  cmd.nsid = nsid;
  cmd.slba = slba;
  cmd.wdata = data;
  cmd.cb = std::move(cb);
  submit(std::move(cmd));
}

void PathGroup::read(u32 nsid, u64 slba, std::span<u8> out, IoCb cb) {
  GroupCmd cmd;
  cmd.op = GroupCmd::Op::kRead;
  cmd.nsid = nsid;
  cmd.slba = slba;
  cmd.rdata = out;
  cmd.cb = std::move(cb);
  submit(std::move(cmd));
}

void PathGroup::flush(u32 nsid, IoCb cb) {
  GroupCmd cmd;
  cmd.op = GroupCmd::Op::kFlush;
  cmd.nsid = nsid;
  cmd.cb = std::move(cb);
  submit(std::move(cmd));
}

void PathGroup::identify(u32 nsid, IdentifyCb cb) {
  GroupCmd cmd;
  cmd.op = GroupCmd::Op::kIdentify;
  cmd.nsid = nsid;
  cmd.identify_cb = std::move(cb);
  submit(std::move(cmd));
}

// Zero-copy is single-path only: slot memory dies with its path, so a
// borrowed buffer or view could not survive a failover. With N == 1 the
// calls delegate straight through (the group adds nothing there); with
// N > 1 supports_zero_copy() is false and begin/read refuse.

Result<PathGroup::WriteTicket> PathGroup::zero_copy_write_begin(u64 len) {
  if (!supports_zero_copy()) {
    return make_error(StatusCode::kUnavailable,
                      "zero-copy unavailable on multipath groups");
  }
  paths_[0].init->serial().assume_held();  // shared reactor
  return paths_[0].init->zero_copy_write_begin(len);
}

void PathGroup::zero_copy_write(const WriteTicket& ticket, u32 nsid, u64 slba,
                                u64 len, IoCb cb) {
  paths_[0].init->serial().assume_held();  // shared reactor
  paths_[0].init->zero_copy_write(ticket, nsid, slba, len, std::move(cb));
}

bool PathGroup::congested() const {
  bool any_eligible = false;
  for (const auto& s : paths_) {
    if (!eligible(s)) continue;
    any_eligible = true;
    s.init->serial().assume_held();  // shared reactor (add_path contract)
    if (!s.init->congested()) return false;  // at least one path has room
  }
  return any_eligible;
}

void PathGroup::zero_copy_read(u32 nsid, u64 slba, u64 len, ReadViewCb cb) {
  if (!supports_zero_copy()) {
    IoResult res;
    res.cpl.status = pdu::NvmeStatus::kInternalError;
    std::move(cb)(
        Result<ReadView>(make_error(
            StatusCode::kUnavailable,
            "zero-copy unavailable on multipath groups")),
        res);
    return;
  }
  paths_[0].init->serial().assume_held();  // shared reactor
  paths_[0].init->zero_copy_read(nsid, slba, len, std::move(cb));
}

}  // namespace oaf::nvmf
