#include "nvmf/initiator.h"

#include <algorithm>
#include <cstring>

#include "af/chunker.h"
#include "af/flow_control.h"
#include "common/log.h"
#include "nvmf/trace_names.h"
#include "pdu/crc32.h"
#include "telemetry/flight.h"
#include "telemetry/prof/cost_center.h"

namespace oaf::nvmf {

using pdu::DataPlacement;
using pdu::NvmeOpcode;
using pdu::Pdu;

namespace {
constexpr u64 kJitterSeed = 1;  ///< the recovery jitter stream
}  // namespace

void NvmfInitiator::init_telemetry() {
  auto& m = telemetry::metrics();
  tel_.track = telemetry::tracer().track("init:" + opts_.connection_name);
  tel_.ios = m.counter("oaf_initiator_ios_completed_total",
                       "I/Os completed by initiators in this process");
  tel_.latency = m.histogram("oaf_initiator_io_latency_ns",
                             "End-to-end per-I/O latency in nanoseconds");
  tel_.reconnects =
      m.counter("oaf_initiator_reconnects_total",
                "Successful association re-establishments");
  tel_.reconnect_failures =
      m.counter("oaf_initiator_reconnect_failures_total",
                "Reconnect dial/handshake attempts that failed");
  tel_.retried = m.counter("oaf_initiator_commands_retried_total",
                           "Commands replayed after faults");
  tel_.ka_sent = m.counter("oaf_initiator_keepalive_sent_total",
                           "Keep-alive PDUs sent");
  tel_.ka_misses = m.counter("oaf_initiator_keepalive_misses_total",
                             "Keep-alive intervals with no peer traffic");
  tel_.digest_errors = m.counter("oaf_initiator_digest_errors_total",
                                 "Data digest mismatches detected");
  tel_.deadlines = m.counter("oaf_initiator_deadlines_expired_total",
                             "Per-command deadlines that expired");
  tel_.aborts_sent =
      m.counter("oaf_initiator_aborts_sent_total", "NVMe Aborts sent");
  tel_.aborts_ok = m.counter("oaf_initiator_aborts_succeeded_total",
                             "NVMe Aborts acknowledged by the target");
  tel_.aborts_failed = m.counter("oaf_initiator_aborts_failed_total",
                                 "NVMe Aborts that timed out");
  tel_.cmds_aborted = m.counter("oaf_initiator_commands_aborted_total",
                                "Commands completed as aborted");
  tel_.ana_changes = m.counter("oaf_initiator_ana_changes_total",
                               "ANA path-state transitions applied");
  tel_.queue_full = m.counter("oaf_initiator_queue_full_total",
                              "kQueueFull backpressure completions received");
  tel_.admission_rejects =
      m.counter("oaf_initiator_admission_rejects_total",
                "Handshakes the target answered with admitted=false");
}

void NvmfInitiator::trace_end_span(const Pending& p) {
  telemetry::tracer().end(tel_.track, "init_io", op_span_name(p.cmd.opcode),
                          p.generation, exec_.now());
}

NvmfInitiator::NvmfInitiator(Executor& exec, net::MsgChannel& control,
                             net::Copier& copier, af::ShmBroker& broker,
                             InitiatorOptions opts)
    : NvmfInitiator(exec, &control, nullptr, copier, broker,
                    std::move(opts)) {}

NvmfInitiator::NvmfInitiator(Executor& exec, ChannelFactory factory,
                             net::Copier& copier, af::ShmBroker& broker,
                             InitiatorOptions opts)
    : NvmfInitiator(exec, nullptr, std::move(factory), copier, broker,
                    std::move(opts)) {}

NvmfInitiator::NvmfInitiator(Executor& exec, net::MsgChannel* control,
                             ChannelFactory factory, net::Copier& copier,
                             af::ShmBroker& broker, InitiatorOptions opts)
    : exec_(exec),
      // Dialed here, before factory_ takes the factory over.
      owned_control_(control == nullptr ? factory() : nullptr),
      control_(control == nullptr ? owned_control_.get() : control),
      factory_(std::move(factory)),
      cm_(broker, exec_serial_),
      ep_(af::Role::kClient, exec, copier, opts.af),
      governor_(opts.af.busy_poll, opts.af.static_poll_ns),
      opts_(std::move(opts)),
      jitter_rng_(kJitterSeed),
      wheel_(exec, wheel_tick_of(opts_)) {
  // Queue depth cannot exceed the cid space / slot count.
  if (opts_.queue_depth == 0) opts_.queue_depth = 1;
  if (opts_.queue_depth > opts_.af.shm_slots) {
    opts_.queue_depth = opts_.af.shm_slots;
  }
  inflight_.resize(opts_.queue_depth);
  slot_busy_.assign(opts_.queue_depth, false);
  wheel_.set_callback([this](u16 cid, u64 generation) {
    exec_serial_.assume_held();  // wheel ticks run on the reactor
    on_deadline(cid, generation);
  });
  control_->set_handler([this, alive = alive_](Pdu p) {
    exec_serial_.assume_held();  // channel delivers on the reactor
    if (*alive) on_pdu(std::move(p));
  });
  init_telemetry();
}

void NvmfInitiator::send_icreq() {
  pdu::ICReq req = cm_.make_icreq(opts_.af);
  req.kato_ns = opts_.recovery.kato_ns;
  req.t_sent_ns = static_cast<u64>(exec_.now());  // NTP t1, echoed in ICResp
  Pdu pdu;
  pdu.header = req;
  control_->send(std::move(pdu));
}

void NvmfInitiator::connect(ConnectCb cb) {
  connect_cb_ = std::move(cb);
  governor_.attach(control_);
  send_icreq();
  schedule_keepalive();
}

void NvmfInitiator::on_pdu(Pdu pdu) {
  ka_outstanding_ = false;  // any traffic proves the peer is alive
  switch (pdu.type()) {
    case pdu::PduType::kICResp:
      on_icresp(*pdu.as<pdu::ICResp>());
      break;
    case pdu::PduType::kR2T:
      on_r2t(*pdu.as<pdu::R2T>());
      break;
    case pdu::PduType::kC2HData:
      on_c2h(std::move(pdu));
      break;
    case pdu::PduType::kCapsuleResp:
      on_resp(std::move(pdu));
      break;
    case pdu::PduType::kKeepAlive: {
      // Controller echo; the blanket ka_outstanding_ reset above already
      // recorded the liveness proof. The echo doubles as a clock-offset
      // probe: it returns our ping stamp (t1) plus the target clock at the
      // echo (t2 == t3).
      const auto& ka = *pdu.as<pdu::KeepAlive>();
      if (!ka.from_host && ka.echo_t_ns != 0) {
        clock_sync_.add_sample(ka.echo_t_ns, ka.t_sent_ns, ka.t_sent_ns,
                               static_cast<u64>(exec_.now()));
      }
      break;
    }
    case pdu::PduType::kC2HTermReq:
      OAF_WARN("initiator received TermReq: %s",
               pdu.as<pdu::TermReq>()->reason.c_str());
      telemetry::tracer().instant(tel_.track, "resilience",
                                  "termreq_received", 0, exec_.now());
      telemetry::flight().dump_now("received TermReq from target");
      control_->close();
      recover("target terminated association");
      break;
    case pdu::PduType::kShmDemote:
      // Target-initiated demotion (its fencing caught a protocol violation):
      // stop producing into the ring; parked transfers drain as usual.
      if (ep_.demote_shm()) {
        counters_.shm_demotions++;
        telemetry::tracer().instant(tel_.track, "resilience",
                                    "shm_demote", 0, exec_.now());
        OAF_WARN("initiator: target demoted shm (%s)",
                 pdu.as<pdu::ShmDemote>()->reason.c_str());
        fire_event(PathEvent::kShmDemoted);
      }
      break;
    case pdu::PduType::kAnomalyResp:
      on_anomaly_resp(std::move(pdu));
      break;
    case pdu::PduType::kAnaLog: {
      // ANA path-state advertisement. change_seq is monotonic per
      // association; a stale or reordered notice must never regress the
      // state a newer one already applied.
      const auto& log = *pdu.as<pdu::AnaLog>();
      if (log.change_seq <= ana_change_seq_) break;
      ana_change_seq_ = log.change_seq;
      if (log.state == ana_state_) break;
      ana_state_ = log.state;
      counters_.ana_changes++;
      telemetry::bump(tel_.ana_changes);
      telemetry::tracer().instant(tel_.track, "multipath", "ana_change",
                                  log.change_seq, exec_.now());
      OAF_WARN("initiator %s: ana -> %s (%s)", opts_.connection_name.c_str(),
               pdu::to_string(log.state), log.reason.c_str());
      fire_event(PathEvent::kAnaChanged);
      break;
    }
    default:
      OAF_WARN("initiator: unexpected PDU type %s", pdu::to_string(pdu.type()));
      break;
  }
}

void NvmfInitiator::on_icresp(const pdu::ICResp& resp) {
  handshake_epoch_++;  // cancels any pending handshake timeout
  if (!resp.admitted) {
    // Connect-time admission rejection (DESIGN.md §12): the target is over
    // its connection cap. This is retryable overload, not a fault — back
    // off at least as long as the target's retry-after hint and re-dial.
    counters_.admission_rejects++;
    telemetry::bump(tel_.admission_rejects);
    telemetry::tracer().instant(tel_.track, "overload", "admission_rejected",
                                0, exec_.now());
    OAF_WARN("initiator: connect rejected by target (%s), retry-after %u ms",
             resp.reject_reason.c_str(), resp.retry_after_ms);
    control_->close();
    if (reconnecting_) {
      counters_.reconnect_failures++;
      telemetry::bump(tel_.reconnect_failures);
      schedule_reconnect(reconnect_attempt_ + 1,
                         static_cast<DurNs>(resp.retry_after_ms) * 1'000'000);
      return;
    }
    if (opts_.recovery.reconnect_enabled() && factory_) {
      // First connect: enter the normal recovery ladder, which re-dials
      // with backoff until the target has room (or attempts run out).
      recover("connect admission rejected");
      return;
    }
    if (connect_cb_) {
      auto cb = std::move(connect_cb_);
      std::move(cb)(
          make_error(StatusCode::kResourceExhausted,
                     "target rejected connection: " + resp.reject_reason));
    }
    abort_connection("connect admission rejected");
    return;
  }
  maxh2cdata_ = resp.maxh2cdata != 0 ? resp.maxh2cdata
                                     : static_cast<u32>(opts_.af.chunk_bytes);
  data_digest_ = resp.data_digest && opts_.af.data_digest;
  trace_ctx_ = resp.trace_ctx && opts_.af.trace_ctx;
  if (trace_ctx_ && resp.echo_t_ns != 0) {
    // NTP sample: t1 = our ICReq stamp (echoed), t2 == t3 = target clock at
    // the ICResp, t4 = now.
    clock_sync_.add_sample(resp.echo_t_ns, resp.t_now_ns, resp.t_now_ns,
                           static_cast<u64>(exec_.now()));
  }
  if (resp.shm_granted) {
    cm_.serial()->assume_held();  // cm_ borrowed this engine's serial
    if (auto st = cm_.complete_client(resp, ep_); !st) {
      OAF_WARN("shm grant could not be honoured, falling back to TCP: %s",
               st.to_string().c_str());
    }
  }
  connected_ = true;
  // A fresh association restarts the ANA ledger: the target re-advertises
  // from seq 1, and until it does the path counts as optimized.
  ana_change_seq_ = 0;
  ana_state_ = pdu::AnaState::kOptimized;
  const bool was_reconnect = reconnecting_;
  reconnecting_ = false;
  if (was_reconnect) {
    counters_.reconnects++;
    telemetry::bump(tel_.reconnects);
    telemetry::tracer().instant(tel_.track, "resilience",
                                "reconnected", 0, exec_.now());
    drain_queue();  // the harvested commands first (recover() queued them)
  }
  fire_event(PathEvent::kConnected);
  if (connect_cb_) {
    auto cb = std::move(connect_cb_);
    std::move(cb)(Status::ok());
  }
}

// --------------------------------------------------------------------------
// Recovery
// --------------------------------------------------------------------------

bool NvmfInitiator::replayable(const Pending& p) const {
  // Zero-copy commands are bound to slot contents that do not survive a
  // reconnect (the region is renegotiated), and view callbacks may already
  // have leaked a borrowed span. Staged reads, un-acked staged writes,
  // flush, and identify all replay safely: the API contract keeps wdata
  // alive until the completion callback fires.
  return !dead_ && !p.zero_copy && !p.view_cb &&
         p.attempts < opts_.recovery.max_command_retries;
}

void NvmfInitiator::end_attempt(Pending& p) {
  trace_end_span(p);
  p.ledger.enter(telemetry::Stage::kDetour, exec_.now());
  p.attempts++;
  p.bytes_received = 0;
}

void NvmfInitiator::deliver(Pending& p, const IoResult& res, const char* why,
                            Result<ReadView>* view) {
  if (p.identify_cb) {
    if (res.cpl.ok() && p.identify_result.first != 0) {
      std::move(p.identify_cb)(p.identify_result);
    } else {
      std::move(p.identify_cb)(make_error(StatusCode::kUnavailable, why));
    }
  } else if (p.view_cb) {
    std::move(p.view_cb)(view != nullptr ? std::move(*view)
                                         : Result<ReadView>(make_error(
                                               StatusCode::kUnavailable, why)),
                         res);
  } else if (p.cb) {
    std::move(p.cb)(res);
  }
}

void NvmfInitiator::fail_pending(Pending& p) {
  if (p.generation != 0) trace_end_span(p);
  IoResult res;
  res.cpl.status = pdu::NvmeStatus::kDataTransferError;
  deliver(p, res, "connection aborted", nullptr);
}

void NvmfInitiator::recover(const char* reason) {
  if (dead_ || reconnecting_) return;
  if (!opts_.recovery.reconnect_enabled() || !factory_) {
    abort_connection(reason);
    return;
  }
  OAF_WARN("initiator: recovering connection (%s)", reason);
  telemetry::tracer().instant(tel_.track, "resilience", "recover", 0,
                              exec_.now());
  reconnecting_ = true;
  connected_ = false;
  association_++;  // voids every outstanding zero-copy write ticket
  // Announce before harvesting: a PathGroup must mark this path ineligible
  // ahead of the failure completions the harvest is about to deliver, or it
  // would re-drive them right back onto the faulted path.
  fire_event(PathEvent::kRecovering);
  handshake_epoch_++;
  ka_outstanding_ = false;
  ka_misses_ = 0;
  wheel_.clear();
  aborts_.clear();
  consecutive_abort_failures_ = 0;
  control_->close();
  // The shm region dies with the association; the reconnect handshake
  // negotiates a fresh one (or falls back to TCP).
  const std::shared_ptr<void> old_mapping = ep_.detach_shm();
  // Harvest in-flight commands to the head of the waiting queue, in cid
  // order (collected first: a failed command's callback may queue new work
  // meanwhile); anything unsafe to replay (or out of budget) fails now,
  // exactly once. A ticket is not a command: it keeps its cid and the
  // mapping its buffer points into until it comes back.
  std::deque<Pending> harvested;
  for (u16 cid = 0; cid < inflight_.size(); ++cid) {
    if (!slot_busy_[cid]) continue;
    if (inflight_[cid].reserved_in != 0) {
      inflight_[cid].old_mapping = old_mapping;
      continue;
    }
    Pending p = std::move(inflight_[cid]);
    release_cid(cid);  // drains nothing: reconnecting_ holds the queue
    if (replayable(p)) {
      end_attempt(p);
      counters_.commands_retried++;
      telemetry::bump(tel_.retried);
      harvested.push_back(std::move(p));
    } else {
      fail_pending(p);
    }
  }
  waiting_.insert(waiting_.begin(), std::make_move_iterator(harvested.begin()),
                  std::make_move_iterator(harvested.end()));
  schedule_reconnect(1);
}

DurNs NvmfInitiator::backoff_for_attempt(u32 attempt) {
  constexpr DurNs kMax = RecoveryPolicy::kMaxBackoffNs;
  DurNs backoff = RecoveryPolicy::kInitialBackoffNs;
  for (u32 i = 1; i < attempt && backoff < kMax; ++i) backoff *= 2;
  if (backoff > kMax) backoff = kMax;
  const double j = RecoveryPolicy::kJitterFrac *
                   (2.0 * jitter_rng_.next_double() - 1.0);
  backoff += static_cast<DurNs>(static_cast<double>(backoff) * j);
  return backoff < 0 ? 0 : backoff;
}

void NvmfInitiator::schedule_reconnect(u32 attempt, DurNs floor) {
  if (attempt > opts_.recovery.max_attempts) {
    abort_connection("reconnect attempts exhausted");
    return;
  }
  const DurNs backoff = std::max(backoff_for_attempt(attempt), floor);
  exec_.schedule_after(backoff, [this, alive = alive_, attempt] {
    exec_serial_.assume_held();
    if (!*alive || dead_ || !reconnecting_) return;
    do_reconnect(attempt);
  });
}

void NvmfInitiator::do_reconnect(u32 attempt) {
  reconnect_attempt_ = attempt;
  auto fresh = factory_();
  if (!fresh) {
    // Dial failed (e.g. the target is still down); burn the attempt and
    // back off again. The previous channel stays in place so control_
    // remains valid.
    counters_.reconnect_failures++;
    telemetry::bump(tel_.reconnect_failures);
    schedule_reconnect(attempt + 1);
    return;
  }
  owned_control_ = std::move(fresh);
  control_ = owned_control_.get();
  control_->set_handler([this, alive = alive_](Pdu p) {
    exec_serial_.assume_held();  // channel delivers on the reactor
    if (*alive) on_pdu(std::move(p));
  });
  governor_.attach(control_);
  send_icreq();
  if (opts_.recovery.handshake_timeout_ns <= 0) return;
  const u64 epoch = handshake_epoch_;
  exec_.schedule_after(
      opts_.recovery.handshake_timeout_ns,
      [this, alive = alive_, attempt, epoch] {
        exec_serial_.assume_held();
        if (!*alive || dead_ || !reconnecting_) return;
        if (epoch != handshake_epoch_) return;  // ICResp arrived in time
        counters_.reconnect_failures++;
        telemetry::bump(tel_.reconnect_failures);
        control_->close();
        schedule_reconnect(attempt + 1);
      });
}

void NvmfInitiator::demote_shm(const std::string& reason) {
  if (!ep_.demote_shm()) return;
  counters_.shm_demotions++;
  telemetry::tracer().instant(tel_.track, "resilience", "shm_demote", 0,
                              exec_.now());
  OAF_WARN("initiator: demoting shm data path (%s)", reason.c_str());
  pdu::ShmDemote demote;
  demote.reason = reason;
  Pdu pdu;
  pdu.header = demote;
  control_->send(std::move(pdu));
  fire_event(PathEvent::kShmDemoted);
}

// --------------------------------------------------------------------------
// Keep-alive
// --------------------------------------------------------------------------

void NvmfInitiator::schedule_keepalive() {
  if (opts_.recovery.keepalive_interval_ns <= 0) return;
  const u64 epoch = ka_epoch_;
  exec_.schedule_after(opts_.recovery.keepalive_interval_ns,
                       [this, alive = alive_, epoch] {
                         exec_serial_.assume_held();
                         if (!*alive || dead_ || epoch != ka_epoch_) return;
                         keepalive_tick();
                       });
}

void NvmfInitiator::keepalive_tick() {
  // The data-path health probe rides the keep-alive cadence: a revoked or
  // re-provisioned locality page demotes the connection to TCP.
  if (ep_.shm_ready() && !ep_.shm_healthy()) {
    demote_shm("locality page health check failed");
  }
  if (connected_ && !reconnecting_) {
    if (ka_outstanding_) {
      counters_.keepalive_misses++;
      telemetry::bump(tel_.ka_misses);
      ka_misses_++;
      if (ka_misses_ >= RecoveryPolicy::kKeepaliveMissLimit) {
        ka_misses_ = 0;
        ka_outstanding_ = false;
        schedule_keepalive();
        recover("keep-alive miss limit reached");
        return;
      }
    } else {
      ka_misses_ = 0;
    }
    pdu::KeepAlive ka;
    ka.from_host = true;
    ka.seq = ++ka_seq_;
    ka.t_sent_ns = static_cast<u64>(exec_.now());  // NTP t1 for the echo
    Pdu pdu;
    pdu.header = ka;
    control_->send(std::move(pdu));
    counters_.keepalive_sent++;
    telemetry::bump(tel_.ka_sent);
    ka_outstanding_ = true;
  }
  schedule_keepalive();
}

// --------------------------------------------------------------------------
// Submission
// --------------------------------------------------------------------------

void NvmfInitiator::arm_timeout(u16 cid) {
  if (opts_.command_timeout_ns <= 0) return;
  wheel_.arm(cid, inflight_[cid].generation, opts_.command_timeout_ns);
}

// --------------------------------------------------------------------------
// Escalation ladder: deadline -> abort -> demote -> reconnect
// --------------------------------------------------------------------------

void NvmfInitiator::on_deadline(u16 cid, u64 generation) {
  if (dead_) return;
  if (aborts_.count(cid) != 0) {
    // Abort cids live in their own namespace; an expiry there is rung two.
    on_abort_timeout(cid);
    return;
  }
  if (!holds(cid, generation)) return;
  counters_.deadlines_expired++;
  telemetry::bump(tel_.deadlines);
  telemetry::tracer().instant(tel_.track, "resilience", "deadline_expired",
                              generation, exec_.now());
  timeouts_++;
  if (!opts_.recovery.aborts_enabled() || reconnecting_) {
    // Legacy semantics: a deadline expiry is a transport fault.
    recover("command timeout");
    return;
  }
  send_abort(cid);
}

u16 NvmfInitiator::alloc_abort_cid() {
  for (u32 tries = 0; tries < 256; ++tries) {
    const u16 acid = static_cast<u16>(kAbortCidBase + (next_abort_cid_++ & 0xFF));
    if (aborts_.count(acid) == 0) return acid;
  }
  return kAbortCidBase;  // unreachable: > 256 concurrent aborts cannot arise
}

void NvmfInitiator::send_abort(u16 victim_cid) {
  Pending& p = inflight_[victim_cid];
  p.abort_attempts++;
  const u16 acid = alloc_abort_cid();
  aborts_[acid] = AbortCtx{victim_cid, p.generation, p.gen};
  counters_.aborts_sent++;
  telemetry::bump(tel_.aborts_sent);
  telemetry::tracer().instant(tel_.track, "resilience", "abort_sent",
                              p.generation, exec_.now());
  OAF_WARN_RL("initiator: aborting stuck cid %u (attempt %u/%u, abort cid %u)",
           victim_cid, p.abort_attempts, opts_.recovery.abort_budget, acid);
  pdu::CapsuleCmd capsule;
  capsule.cmd.opcode = NvmeOpcode::kAbort;
  capsule.cmd.cid = acid;
  capsule.cmd.abort_cid = victim_cid;
  capsule.cmd.abort_gen = p.gen;
  Pdu pdu;
  pdu.header = capsule;
  control_->send(std::move(pdu));
  wheel_.arm(acid, 0, opts_.command_timeout_ns);
}

void NvmfInitiator::on_abort_timeout(u16 abort_cid) {
  const auto it = aborts_.find(abort_cid);
  if (it == aborts_.end()) return;
  const AbortCtx a = it->second;
  aborts_.erase(it);
  counters_.aborts_failed++;
  telemetry::bump(tel_.aborts_failed);
  consecutive_abort_failures_++;
  // Aborts ride the control channel. If they keep dying while shm is up,
  // suspect the fast path first and demote before burning the connection.
  if (ep_.shm_ready() && consecutive_abort_failures_ >=
                             RecoveryPolicy::kDemoteAfterFailedAborts) {
    demote_shm("aborts timing out while shm active");
  }
  // The victim may have resolved itself meanwhile.
  if (!holds(a.victim_cid, a.victim_generation)) return;
  if (inflight_[a.victim_cid].abort_attempts < opts_.recovery.abort_budget) {
    send_abort(a.victim_cid);
    return;
  }
  // Rung three: the control path itself is unresponsive.
  recover("abort escalation exhausted");
}

void NvmfInitiator::on_abort_resp(u16 abort_cid, const pdu::CapsuleResp& resp) {
  const AbortCtx a = aborts_[abort_cid];
  aborts_.erase(abort_cid);
  wheel_.cancel(abort_cid);
  consecutive_abort_failures_ = 0;
  counters_.aborts_succeeded++;
  telemetry::bump(tel_.aborts_ok);
  // The target sends the victim's (aborted) completion before the abort
  // response, so normally the victim is already closed here.
  if (!holds(a.victim_cid, a.victim_generation)) return;
  // result 1: the target has no record of the victim — the capsule (or its
  // completion) was lost on the wire, so replay in place. result 0 but the
  // victim's own completion never arrived: close it as aborted now rather
  // than waiting for a PDU that is not coming.
  complete(a.victim_cid,
           {a.victim_cid,
            resp.cpl.result != 0 ? pdu::NvmeStatus::kTransientTransportError
                                 : pdu::NvmeStatus::kAbortedByRequest,
            0},
           0, 0);
}

void NvmfInitiator::note_shm_consume_failure(const Status& st) {
  if (st.code() != StatusCode::kPeerMisbehavior) return;
  counters_.peer_misbehavior++;
  demote_shm("shm slot protocol violation on consume");
}

void NvmfInitiator::abort_connection(const char* reason) {
  if (dead_) return;
  dead_ = true;
  reconnecting_ = false;
  // Announce before failing in-flight: the PathGroup's redrive decisions
  // must already see this path as dead when the failure burst arrives.
  fire_event(PathEvent::kDead);
  ka_epoch_++;  // stop the keep-alive loop
  wheel_.clear();
  aborts_.clear();
  consecutive_abort_failures_ = 0;
  OAF_WARN("initiator: aborting connection (%s)", reason);
  // Escalation-ladder exhaustion / fatal teardown: capture the black box
  // before in-flight state is failed out (no-op unless flight().install()
  // armed dumping).
  telemetry::tracer().instant(tel_.track, "resilience", "abort_connection",
                              0, exec_.now());
  telemetry::flight().dump_now(reason);
  // NVMe-oF error recovery past the reconnect budget is controller-scoped:
  // terminate the association and fail everything in flight. A late
  // response for a failed cid must not be matched against a new command,
  // so the queue stops here.
  pdu::TermReq term;
  term.from_host = true;
  term.fes = 2;
  term.reason = reason;
  Pdu pdu;
  pdu.header = term;
  control_->send(std::move(pdu));
  control_->close();

  for (u16 cid = 0; cid < inflight_.size(); ++cid) {
    // A ticket is not a command: it fails when it comes back.
    if (!slot_busy_[cid] || inflight_[cid].reserved_in != 0) continue;
    complete(cid, {cid, pdu::NvmeStatus::kDataTransferError, 0}, 0, 0);
  }
  while (!waiting_.empty()) {
    Pending p = std::move(waiting_.front());
    waiting_.pop_front();
    fail_pending(p);
  }
  if (connect_cb_) {
    // A first connect that entered the recovery ladder (e.g. an admission
    // reject with reconnect enabled) and exhausted it must still resolve —
    // otherwise the caller waits on a callback that never comes.
    auto cb = std::move(connect_cb_);
    std::move(cb)(make_error(StatusCode::kUnavailable,
                             std::string("connection aborted: ") + reason));
  }
}

void NvmfInitiator::submit_or_queue(Pending pending) {
  const telemetry::prof::CostScope cost(telemetry::Stage::kSubmit);
  // First submission opens the ledger's kQueue phase; a replay keeps its
  // ledger (currently accruing kDetour) so detour time stays attributed.
  if (pending.first_submit < 0) pending.ledger.reset(exec_.now());
  if (dead_) {
    fail_pending(pending);
    return;
  }
  if (reconnecting_) {
    // Hold everything until the association is re-established; the replay
    // flush resubmits in order.
    waiting_.push_back(std::move(pending));
    return;
  }
  // Find a free cid round-robin (paper: slots chosen round-robin w.r.t. the
  // application I/O depth).
  for (u32 i = 0; i < opts_.queue_depth; ++i) {
    const u16 cid = static_cast<u16>((next_cid_ + i) % opts_.queue_depth);
    if (!slot_busy_[cid]) {
      next_cid_ = static_cast<u16>((cid + 1) % opts_.queue_depth);
      slot_busy_[cid] = true;
      inflight_count_++;
      pending.cmd.cid = cid;
      inflight_[cid] = std::move(pending);
      start_command(cid);
      return;
    }
  }
  waiting_.push_back(std::move(pending));
}

void NvmfInitiator::drain_queue() {
  while (!waiting_.empty()) {
    if (reconnecting_ || dead_) return;
    // Re-check a cid is actually free before popping.
    bool any_free = false;
    for (u32 i = 0; i < opts_.queue_depth; ++i) {
      if (!slot_busy_[i]) {
        any_free = true;
        break;
      }
    }
    if (!any_free) return;
    Pending next = std::move(waiting_.front());
    waiting_.pop_front();
    submit_or_queue(std::move(next));
  }
}

void NvmfInitiator::start_command(u16 cid) {
  Pending& p = inflight_[cid];
  p.submit_time = exec_.now();
  if (p.first_submit < 0) p.first_submit = p.submit_time;
  p.generation = next_generation_++;
  p.gen = next_gen_++;
  if (next_gen_ == 0) next_gen_ = 1;  // 0 is the wildcard tag
  // Zero-copy commands enter here directly (no submit_or_queue); open their
  // ledger now. For everything else this closes kQueue (or a replay's
  // kDetour) into its bucket and starts the encode/staging phase.
  if (p.ledger.touched == 0) p.ledger.reset(p.submit_time);
  p.ledger.enter(telemetry::Stage::kEncode, p.submit_time);
  // One async span per submission attempt (a retry begins a fresh span with
  // its new generation, so detours stay visible on the timeline).
  telemetry::tracer().begin(tel_.track, "init_io", op_span_name(p.cmd.opcode),
                            p.generation, p.submit_time, "bytes",
                            static_cast<i64>(p.data_len));
  governor_.record_op(p.cmd.is_write());
  arm_timeout(cid);
  switch (p.cmd.opcode) {
    case NvmeOpcode::kWrite:
      start_write(cid);
      break;
    case NvmeOpcode::kRead:
      start_read(cid);
      break;
    default:
      send_capsule(cid, /*in_capsule=*/false, DataPlacement::kInline, {});
      break;
  }
}

void NvmfInitiator::send_capsule(u16 cid, bool in_capsule,
                                 DataPlacement placement,
                                 std::vector<u8> inline_payload) {
  const telemetry::prof::CostScope cost(telemetry::Stage::kEncode);
  Pending& p = inflight_[cid];
  pdu::CapsuleCmd capsule;
  capsule.cmd = p.cmd;
  capsule.in_capsule_data = in_capsule;
  capsule.placement = placement;
  capsule.shm_slot = cid;
  capsule.data_len = p.data_len;
  capsule.gen = p.gen;
  if (trace_ctx_) {
    // The attempt generation doubles as trace id and parent span id: it is
    // unique per attempt, and the initiator's I/O span already uses it as
    // its async id, so target spans stitch under it in the merged timeline.
    capsule.trace_id = p.generation;
    capsule.parent_span = p.generation;
  }
  Pdu pdu;
  pdu.header = capsule;
  pdu.payload = std::move(inline_payload);
  // Capsule on the wire: encode/staging is done, the grant/response wait
  // begins (an R2T or first data moves the cursor to kXfer).
  p.ledger.enter(telemetry::Stage::kGrant, exec_.now());
  telemetry::tracer().instant(
      tel_.track, "init_io", in_capsule ? "capsule_sent" : "capsule_sent_r2t",
      p.generation, exec_.now(), "bytes", static_cast<i64>(p.data_len));
  control_->send(std::move(pdu));
}

void NvmfInitiator::start_write(u16 cid) {
  Pending& p = inflight_[cid];
  const bool shm = ep_.shm_ready();
  const bool in_capsule = af::write_in_capsule(opts_.af, shm, p.data_len);

  if (p.zero_copy) {
    // Payload already lives in the slot (acquired at zero_copy_write_begin);
    // publish it and notify the target in-capsule.
    const Status st = ep_.publish_app_buffer(cid, p.data_len, [this, cid] {
      send_capsule(cid, /*in_capsule=*/true, DataPlacement::kShmSlot, {});
    });
    if (!st) complete(cid, {cid, pdu::NvmeStatus::kInternalError, 0}, 0, 0);
    return;
  }

  if (shm) {
    if (in_capsule) {
      const Status st = ep_.stage_payload(cid, p.wdata, [this, cid] {
        send_capsule(cid, /*in_capsule=*/true, DataPlacement::kShmSlot, {});
      });
      if (!st) complete(cid, {cid, pdu::NvmeStatus::kInternalError, 0}, 0, 0);
    } else {
      // Conservative flow on shm (ablation baseline): command first, data
      // staged only after the target's R2T arrives.
      send_capsule(cid, /*in_capsule=*/false, DataPlacement::kShmSlot, {});
    }
    return;
  }

  // TCP-only path.
  if (in_capsule) {
    std::vector<u8> payload(p.wdata.begin(), p.wdata.end());
    send_capsule(cid, /*in_capsule=*/true, DataPlacement::kInline,
                 std::move(payload));
  } else {
    send_capsule(cid, /*in_capsule=*/false, DataPlacement::kInline, {});
  }
}

void NvmfInitiator::start_read(u16 cid) {
  send_capsule(cid, /*in_capsule=*/false,
               ep_.shm_ready() ? DataPlacement::kShmSlot : DataPlacement::kInline,
               {});
}

void NvmfInitiator::on_r2t(const pdu::R2T& r2t) {
  const u16 cid = r2t.cid;
  if (cid >= inflight_.size() || !slot_busy_[cid]) {
    OAF_WARN_RL("R2T for unknown cid %u", cid);
    return;
  }
  Pending& p = inflight_[cid];
  if (stale(r2t.gen, p)) {
    OAF_WARN_RL("stale R2T for cid %u (gen %u != %u)", cid, r2t.gen, p.gen);
    return;
  }
  // The grant must lie inside this command's own source buffer: a zero-copy
  // write or a read has none, so any R2T for them fails here too.
  if (!pdu::range_fits(r2t.offset, r2t.length, p.wdata.size())) {
    complete(cid, {cid, pdu::NvmeStatus::kDataTransferError, 0}, 0, 0);
    return;
  }
  // Grant arrived; the data-transfer phase starts.
  p.ledger.enter(telemetry::Stage::kXfer, exec_.now());
  telemetry::tracer().instant(tel_.track, "init_io", "r2t", p.generation,
                              exec_.now(), "bytes",
                              static_cast<i64>(r2t.length));
  if (ep_.shm_ready()) {
    // Conservative flow on shm (pre-optimization design): the granted
    // window moves through the slot one maxh2cdata chunk at a time, each
    // chunk with its own out-of-band notification (Fig 6/7 steps 3 and 4,
    // repeated per chunk) — the serialization §4.4.2's in-capsule flow
    // eliminates.
    shm_write_chunk(cid, r2t.ttag, r2t.offset, r2t.offset + r2t.length);
    return;
  }
  // TCP: stream the granted window as inline chunks of maxh2cdata.
  const auto chunks =
      af::make_chunks(r2t.length, maxh2cdata_);
  for (const auto& c : chunks) {
    pdu::H2CData h2c;
    h2c.cid = cid;
    h2c.ttag = r2t.ttag;
    h2c.offset = r2t.offset + c.offset;
    h2c.length = c.length;
    h2c.last = c.last;
    h2c.placement = DataPlacement::kInline;
    h2c.gen = p.gen;
    Pdu pdu;
    pdu.header = h2c;
    const auto slice = p.wdata.subspan(r2t.offset + c.offset, c.length);
    pdu.payload.assign(slice.begin(), slice.end());
    if (data_digest_) {
      h2c.data_digest = pdu::crc32c(
          std::span<const u8>(pdu.payload.data(), pdu.payload.size()));
      pdu.header = h2c;
    }
    control_->send(std::move(pdu));
  }
}

void NvmfInitiator::shm_write_chunk(u16 cid, u16 ttag, u64 offset, u64 end) {
  if (cid >= inflight_.size() || !slot_busy_[cid]) return;
  Pending& p = inflight_[cid];
  const u64 chunk = std::min<u64>(maxh2cdata_, end - offset);
  const bool last = offset + chunk >= end;
  ep_.stage_payload_when_free(
      cid, p.wdata.subspan(offset, chunk),
      [this, cid, ttag, offset, chunk, last, end, generation = p.generation,
       gen = p.gen] {
        if (!holds(cid, generation)) return;  // ended, or replaced by a replay
        pdu::H2CData h2c;
        h2c.cid = cid;
        h2c.ttag = ttag;
        h2c.offset = offset;
        h2c.length = chunk;
        h2c.last = last;
        h2c.placement = DataPlacement::kShmSlot;
        h2c.shm_slot = cid;
        h2c.gen = gen;
        Pdu pdu;
        pdu.header = h2c;
        control_->send(std::move(pdu));
        if (!last) shm_write_chunk(cid, ttag, offset + chunk, end);
      },
      // An aborted (or replayed) command must not park a stray payload in a
      // slot a successor will reuse — the poll re-checks before every stage.
      [this, alive = alive_, cid, generation = p.generation] {
        return !*alive || !holds(cid, generation);
      });
}

// --------------------------------------------------------------------------
// Completion paths
// --------------------------------------------------------------------------

void NvmfInitiator::on_c2h(Pdu pdu) {
  const telemetry::prof::CostScope cost(telemetry::Stage::kXfer);
  const auto& c2h = *pdu.as<pdu::C2HData>();
  const u16 cid = c2h.cid;
  if (cid >= inflight_.size() || !slot_busy_[cid]) {
    OAF_WARN_RL("C2HData for unknown cid %u", cid);
    return;
  }
  Pending& p = inflight_[cid];
  if (stale(c2h.gen, p)) {
    OAF_WARN_RL("stale C2HData for cid %u (gen %u != %u)", cid, c2h.gen, p.gen);
    return;
  }
  // First data closes the kGrant wait; later chunks just keep kXfer open.
  p.ledger.enter(telemetry::Stage::kXfer, exec_.now());

  if (c2h.placement == DataPlacement::kShmSlot && p.zero_copy && p.view_cb) {
    // Zero-copy read: hand the application a view of the slot; the slot
    // (and the cid) are reclaimed when the application releases it.
    auto data = ep_.consume_view(c2h.shm_slot);
    if (!data) note_shm_consume_failure(data.status());
    Result<ReadView> view =
        data ? Result<ReadView>(ReadView{data.value(),
                                         [this, cid, slot = c2h.shm_slot] {
                                           (void)ep_.release_slot(slot);
                                           release_cid(cid);
                                         }})
             : Result<ReadView>(data.status());
    complete(cid,
             {cid,
              data ? pdu::NvmeStatus::kSuccess
                   : pdu::NvmeStatus::kDataTransferError,
              0},
             c2h.io_time_ns, c2h.target_time_ns, &view);
    return;
  }
  // A staged chunk lands in the application buffer at its offset.
  if (!pdu::range_fits(c2h.offset, c2h.length, p.rdata.size())) {
    complete(cid, {cid, pdu::NvmeStatus::kDataTransferError, 0}, 0, 0);
    return;
  }
  if (c2h.placement == DataPlacement::kShmSlot) {
    // Staged shm read: copy the published chunk into place; the SUCCESS
    // flag (optimized flow) folds the completion into the last data PDU,
    // otherwise CapsuleResp closes it.
    ep_.consume_payload(
        c2h.shm_slot, p.rdata.subspan(c2h.offset, c2h.length),
        [this, alive = alive_, cid, generation = p.generation,
         last = c2h.last, success = c2h.success, io_ns = c2h.io_time_ns,
         tgt_ns = c2h.target_time_ns](Result<u64> got) {
          exec_serial_.assume_held();  // consume completion posts here
          if (!*alive || !holds(cid, generation)) return;  // ended or replayed
          if (!got) {
            note_shm_consume_failure(got.status());
            complete(cid, {cid, pdu::NvmeStatus::kDataTransferError, 0}, 0, 0);
            return;
          }
          if (last && success) {
            complete(cid, {cid, pdu::NvmeStatus::kSuccess, 0}, io_ns, tgt_ns);
          }
        });
    return;
  }

  // Inline TCP chunk: it must carry exactly the bytes it announces.
  if (pdu.payload.size() != c2h.length) {
    complete(cid, {cid, pdu::NvmeStatus::kDataTransferError, 0}, 0, 0);
    return;
  }
  if (data_digest_ && c2h.data_digest != 0) {
    const u32 computed = pdu::crc32c(
        std::span<const u8>(pdu.payload.data(), pdu.payload.size()));
    if (computed != c2h.data_digest) {
      counters_.digest_errors++;
      telemetry::bump(tel_.digest_errors);
      OAF_WARN_RL("C2HData digest mismatch for cid %u", cid);
      complete(cid, {cid, pdu::NvmeStatus::kTransientTransportError, 0}, 0, 0);
      return;
    }
  }
  std::memcpy(p.rdata.data() + c2h.offset, pdu.payload.data(), c2h.length);
  p.bytes_received += c2h.length;
  if (c2h.last && c2h.success) {
    complete(cid, {cid, pdu::NvmeStatus::kSuccess, 0}, c2h.io_time_ns,
             c2h.target_time_ns);
  }
  // Otherwise the CapsuleResp closes the command.
}

void NvmfInitiator::on_resp(Pdu pdu) {
  const auto& resp = *pdu.as<pdu::CapsuleResp>();
  const u16 cid = resp.cpl.cid;
  if (aborts_.count(cid) != 0) {
    on_abort_resp(cid, resp);
    return;
  }
  if (cid >= inflight_.size() || !slot_busy_[cid]) {
    OAF_WARN_RL("CapsuleResp for unknown cid %u", cid);
    return;
  }
  Pending& p = inflight_[cid];
  if (stale(resp.gen, p)) {
    OAF_WARN_RL("stale CapsuleResp for cid %u (gen %u != %u)", cid, resp.gen,
             p.gen);
    return;
  }
  if (p.cmd.opcode == NvmeOpcode::kIdentify && p.identify_cb &&
      pdu.payload.size() >= 12 && resp.cpl.ok()) {
    // Identify carries (block_size, num_blocks) in the payload.
    u32 bs = 0;
    u64 nb = 0;
    for (int i = 0; i < 4; ++i) bs |= static_cast<u32>(pdu.payload[i]) << (8 * i);
    for (int i = 0; i < 8; ++i) {
      nb |= static_cast<u64>(pdu.payload[4 + i]) << (8 * i);
    }
    p.identify_result = {bs, nb};
  }
  complete(cid, resp.cpl, resp.io_time_ns, resp.target_time_ns);
}

bool NvmfInitiator::retry_in_place(u16 cid, bool queue_full) {
  Pending& p = inflight_[cid];
  if (!replayable(p)) return false;
  end_attempt(p);
  telemetry::tracer().instant(
      tel_.track, queue_full ? "overload" : "resilience",
      queue_full ? "queue_full_backoff" : "retry", p.generation, exec_.now());
  if (!queue_full) {
    counters_.commands_retried++;
    telemetry::bump(tel_.retried);
    start_command(cid);  // a fresh gen tag fences the failed attempt's PDUs
    return true;
  }
  // The target refused the command before it touched the medium. Hold the
  // cid through a jittered backoff with the deadline parked: the command is
  // off the wire, so an expiry would abort what the target no longer has.
  counters_.queue_full_retries++;
  wheel_.cancel(cid);
  const DurNs backoff = backoff_for_attempt(p.attempts);
  congested_until_ = std::max(congested_until_, exec_.now() + backoff);
  exec_.schedule_after(backoff, [this, alive = alive_, cid,
                                 generation = p.generation] {
    exec_serial_.assume_held();
    if (*alive && !dead_ && holds(cid, generation)) start_command(cid);
  });
  return true;
}

void NvmfInitiator::release_cid(u16 cid) {
  wheel_.cancel(cid);
  slot_busy_[cid] = false;
  if (inflight_count_ > 0) inflight_count_--;
  inflight_[cid] = Pending{};
  drain_queue();
}

void NvmfInitiator::complete(u16 cid, const pdu::NvmeCpl& cpl, u64 io_ns,
                             u64 target_ns, Result<ReadView>* view) {
  const telemetry::prof::CostScope cost(telemetry::Stage::kComplete);
  Pending& p = inflight_[cid];
  const bool queue_full = cpl.status == pdu::NvmeStatus::kQueueFull;
  if (queue_full) {
    counters_.queue_full_received++;
    telemetry::bump(tel_.queue_full);
    telemetry::tracer().instant(tel_.track, "overload", "queue_full_received",
                                cid, exec_.now());
    // Raise the congestion window on every reject, including those that
    // surface: congested() is how producers that manage their own buffers
    // (zero-copy is not retried in place) learn to stop offering work.
    congested_until_ = std::max(
        congested_until_, exec_.now() + backoff_for_attempt(p.attempts + 1));
  }
  // A transport fault on a healthy association (e.g. a digest mismatch) or
  // backpressure: retry in place; out of budget, the status surfaces.
  if ((queue_full || cpl.status == pdu::NvmeStatus::kTransientTransportError) &&
      retry_in_place(cid, queue_full)) {
    return;
  }
  trace_end_span(p);
  if (cpl.status == pdu::NvmeStatus::kAbortedByRequest) {
    counters_.commands_aborted++;
    telemetry::bump(tel_.cmds_aborted);
    telemetry::tracer().instant(tel_.track, "resilience", "aborted",
                                p.generation, exec_.now());
  }
  IoResult res;
  res.cpl = cpl;
  // total_ns spans the FIRST submission to the final completion so retried
  // commands report their true application-visible latency; io/target time
  // come from the completing attempt only, so device residency of earlier
  // (abandoned) attempts is never double-counted in the Fig 3/12 breakdown.
  res.total_ns =
      exec_.now() - (p.first_submit >= 0 ? p.first_submit : p.submit_time);
  res.io_time_ns = io_ns;
  res.target_time_ns = target_ns;

  // Close the ledger: carve the remotely-reported residency out of whichever
  // wire phase covered the round-trip, fold the stage breakdown into the
  // current attribution window, and let a breach verdict promote a capture.
  p.ledger.finalize(exec_.now(), static_cast<DurNs>(io_ns),
                    static_cast<DurNs>(target_ns));
  const telemetry::OpClass op_class = p.cmd.is_write()
                                          ? telemetry::OpClass::kWrite
                                          : telemetry::OpClass::kRead;
  if (telemetry::attribution().record(op_class, p.ledger, res.total_ns,
                                      p.generation, exec_.now())) {
    maybe_capture_anomaly(p, res.total_ns, op_class);
  }

  ios_completed_++;
  // cycles/IO denominator (one relaxed load when cycle accounting is off).
  telemetry::prof::cycle_ledger().add_io();
  telemetry::bump(tel_.ios);
  tel_.latency->record(res.total_ns);
  if (cpl.ok()) {
    // Per-path latency EWMA (alpha 1/8) for the latency-aware selector.
    const auto t = static_cast<double>(res.total_ns);
    latency_ewma_ns_ =
        latency_ewma_ns_ == 0 ? t : latency_ewma_ns_ + (t - latency_ewma_ns_) / 8;
    // The target served a command, so the overload that set the congestion
    // window has eased — lift it early rather than waiting it out.
    congested_until_ = 0;
  }
  // Free the cid before the callback so it may submit straight into it. A
  // view read ending without a view (aborted, errored) still hears of it.
  Pending done = std::move(p);
  if (view == nullptr || !view->is_ok()) release_cid(cid);
  deliver(done, res,
          done.identify_cb ? "identify failed"
                           : "read completed without a payload",
          view);
}

// --------------------------------------------------------------------------
// Retroactive anomaly capture
// --------------------------------------------------------------------------

void NvmfInitiator::maybe_capture_anomaly(const Pending& p, i64 total_ns,
                                          telemetry::OpClass op) {
  auto claimed = telemetry::anomaly().claim(p.generation, op, total_ns,
                                            p.ledger, exec_.now());
  if (!claimed) return;  // disarmed, out of slots, or rate-limited
  telemetry::AnomalyContext& ctx = *claimed;
  ctx.clock_offset_ns = clock_sync_.offset_ns();
  if (connected_ && !dead_ && trace_ctx_) {
    // Ask the target for its half; the capture file is written when the
    // reply arrives or the fetch times out, whichever comes first. The
    // window travels pre-translated onto the target's clock.
    anomaly_ctx_ = ctx;
    anomaly_fetch_pending_ = true;
    const u64 epoch = ++anomaly_fetch_epoch_;
    pdu::AnomalyReq req;
    req.trace_id = ctx.trace_id;
    req.t_from_ns = ctx.t_from_ns + ctx.clock_offset_ns;
    req.t_to_ns = ctx.t_to_ns + ctx.clock_offset_ns;
    req.offset_ns = ctx.clock_offset_ns;
    Pdu pdu;
    pdu.header = req;
    control_->send(std::move(pdu));
    exec_.schedule_after(
        kAnomalyFetchTimeoutNs, [this, alive = alive_, epoch] {
          exec_serial_.assume_held();
          if (!*alive || epoch != anomaly_fetch_epoch_) return;
          if (!anomaly_fetch_pending_) return;
          anomaly_fetch_pending_ = false;
          // Evidence with a gap beats no evidence: local half only.
          telemetry::anomaly().capture(anomaly_ctx_);
        });
    return;
  }
  telemetry::anomaly().capture(ctx);
}

void NvmfInitiator::on_anomaly_resp(Pdu pdu) {
  const auto& resp = *pdu.as<pdu::AnomalyResp>();
  if (!anomaly_fetch_pending_ || resp.trace_id != anomaly_ctx_.trace_id) {
    return;  // late reply after the fetch timeout already captured
  }
  anomaly_fetch_pending_ = false;
  anomaly_fetch_epoch_++;  // invalidates the pending fetch timeout
  anomaly_ctx_.remote_pid = resp.pid;
  anomaly_ctx_.remote_events_json.assign(pdu.payload.begin(),
                                         pdu.payload.end());
  telemetry::anomaly().capture(anomaly_ctx_);
}

// --------------------------------------------------------------------------
// Public API
// --------------------------------------------------------------------------

namespace {
pdu::NvmeCmd make_cmd(pdu::NvmeOpcode op, u32 nsid, u64 slba, u64 bytes,
                      u32 block_size) {
  pdu::NvmeCmd cmd;
  cmd.opcode = op;
  cmd.nsid = nsid;
  cmd.slba = slba;
  cmd.nlb = bytes == 0 ? 0 : static_cast<u32>(bytes / block_size - 1);
  return cmd;
}
}  // namespace

void NvmfInitiator::write(u32 nsid, u64 slba, std::span<const u8> data, IoCb cb) {
  Pending p;
  p.cmd = make_cmd(NvmeOpcode::kWrite, nsid, slba, data.size(), kBlockSize);
  p.data_len = data.size();
  p.wdata = data;
  p.cb = std::move(cb);
  submit_or_queue(std::move(p));
}

void NvmfInitiator::read(u32 nsid, u64 slba, std::span<u8> out, IoCb cb) {
  Pending p;
  p.cmd = make_cmd(NvmeOpcode::kRead, nsid, slba, out.size(), kBlockSize);
  p.data_len = out.size();
  p.rdata = out;
  p.cb = std::move(cb);
  submit_or_queue(std::move(p));
}

void NvmfInitiator::flush(u32 nsid, IoCb cb) {
  Pending p;
  p.cmd = make_cmd(NvmeOpcode::kFlush, nsid, 0, 0, kBlockSize);
  p.cb = std::move(cb);
  submit_or_queue(std::move(p));
}

void NvmfInitiator::identify(u32 nsid, IdentifyCb cb) {
  Pending p;
  p.cmd = make_cmd(NvmeOpcode::kIdentify, nsid, 0, 0, kBlockSize);
  p.identify_cb = std::move(cb);
  submit_or_queue(std::move(p));
}

Result<NvmfInitiator::WriteTicket> NvmfInitiator::zero_copy_write_begin(u64 len) {
  if (!supports_zero_copy()) {
    return make_error(StatusCode::kUnavailable, "zero-copy requires shm");
  }
  if (len > ep_.slot_bytes()) {
    return make_error(StatusCode::kOutOfRange, "length exceeds slot size");
  }
  for (u32 i = 0; i < opts_.queue_depth; ++i) {
    const u16 cid = static_cast<u16>((next_cid_ + i) % opts_.queue_depth);
    if (!slot_busy_[cid]) {
      auto buf = ep_.acquire_app_buffer(cid);
      if (!buf) return buf.status();
      next_cid_ = static_cast<u16>((cid + 1) % opts_.queue_depth);
      slot_busy_[cid] = true;
      inflight_count_++;
      inflight_[cid].reserved_in = association_;
      return WriteTicket{cid, buf.value()};
    }
  }
  return make_error(StatusCode::kResourceExhausted, "queue depth exceeded");
}

void NvmfInitiator::zero_copy_write(const WriteTicket& ticket, u32 nsid,
                                    u64 slba, u64 len, IoCb cb) {
  // A ticket dies with the association that reserved its cid. A dead
  // initiator, a cid that holds no reservation, or one from an older
  // association fails the write at once and touches no other command.
  const u16 cid = ticket.cid;
  const bool reserved = cid < inflight_.size() && slot_busy_[cid] &&
                        inflight_[cid].reserved_in != 0;
  if (dead_ || !reserved || inflight_[cid].reserved_in != association_) {
    if (reserved) release_cid(cid);
    IoResult res;
    res.cpl.status = pdu::NvmeStatus::kDataTransferError;
    std::move(cb)(res);
    return;
  }
  Pending p;
  p.cmd = make_cmd(NvmeOpcode::kWrite, nsid, slba, len, kBlockSize);
  p.cmd.cid = cid;
  p.data_len = len;
  p.zero_copy = true;
  p.cb = std::move(cb);
  inflight_[cid] = std::move(p);
  start_command(cid);
}

void NvmfInitiator::zero_copy_read(u32 nsid, u64 slba, u64 len, ReadViewCb cb) {
  if (!supports_zero_copy()) {
    IoResult res;
    res.cpl.status = pdu::NvmeStatus::kInternalError;
    std::move(cb)(
        Result<ReadView>(
            make_error(StatusCode::kUnavailable, "zero-copy requires shm")),
        res);
    return;
  }
  Pending p;
  p.cmd = make_cmd(NvmeOpcode::kRead, nsid, slba, len, kBlockSize);
  p.data_len = len;
  p.zero_copy = true;
  p.view_cb = std::move(cb);
  submit_or_queue(std::move(p));
}

}  // namespace oaf::nvmf
