#include "nvmf/target.h"

#include <algorithm>
#include <cstring>

#include <unistd.h>

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
using pdu::NvmeStatus;
using pdu::Pdu;

NvmfTargetConnection::NvmfTargetConnection(Executor& exec,
                                           net::MsgChannel& control,
                                           net::Copier& copier,
                                           af::ShmBroker& broker,
                                           ssd::Subsystem& subsystem,
                                           TargetOptions opts)
    : exec_(exec),
      control_(control),
      cm_(broker, exec_serial_),
      ep_(af::Role::kTarget, exec, copier, opts.af),
      governor_(opts.af.busy_poll, opts.af.static_poll_ns),
      subsystem_(subsystem),
      opts_(std::move(opts)),
      staging_("per-connection staging budget", opts_.max_staging_bytes,
               opts_.global_staging) {
  last_heard_ = exec_.now();
  kato_ns_ = opts_.default_kato_ns;
  control_.set_handler([this, alive = alive_](Pdu p) {
    exec_serial_.assume_held();  // channel delivers on the reactor
    if (*alive) on_pdu(std::move(p));
  });
  governor_.attach(&control_);
  init_telemetry();
}

void NvmfTargetConnection::init_telemetry() {
  auto& m = telemetry::metrics();
  tel_.track = telemetry::tracer().track("target:" + opts_.connection_name);
  tel_.commands = m.counter("oaf_target_commands_total",
                            "Commands fully served by target connections");
  tel_.r2ts = m.counter("oaf_target_r2ts_total",
                        "R2T transfer grants sent (conservative flow)");
  tel_.bytes_read = m.counter("oaf_target_bytes_read_total",
                              "Payload bytes served to hosts by reads");
  tel_.bytes_written = m.counter("oaf_target_bytes_written_total",
                                 "Payload bytes landed on devices by writes");
  tel_.keepalives = m.counter("oaf_target_keepalives_answered_total",
                              "Keep-alive pings echoed back to hosts");
  tel_.digest_errors = m.counter("oaf_target_digest_errors_total",
                                 "Inline write payload digest mismatches");
  tel_.aborts_handled = m.counter("oaf_target_aborts_handled_total",
                                  "NVMe Abort commands processed");
  tel_.cmds_aborted = m.counter("oaf_target_commands_aborted_total",
                                "In-flight commands cancelled by Abort");
  tel_.queue_full = m.counter("oaf_target_queue_full_rejects_total",
                              "Commands rejected with kQueueFull by a "
                              "resource budget before admission");
  tel_.shed = m.counter("oaf_target_commands_shed_total",
                        "Admitted commands shed with kQueueFull by the "
                        "overload high-watermark policy");
}

NvmfTargetConnection::~NvmfTargetConnection() {
  *alive_ = false;
  if (ep_.shm_attached()) {
    cm_.serial()->assume_held();  // cm_ borrowed this connection's serial
    (void)cm_.release(opts_.connection_name);
  }
}

void NvmfTargetConnection::on_pdu(Pdu pdu) {
  last_heard_ = exec_.now();
  switch (pdu.type()) {
    case pdu::PduType::kICReq:
      on_icreq(*pdu.as<pdu::ICReq>());
      break;
    case pdu::PduType::kCapsuleCmd:
      on_capsule(std::move(pdu));
      break;
    case pdu::PduType::kH2CData:
      on_h2c(std::move(pdu));
      break;
    case pdu::PduType::kKeepAlive: {
      // Echo the ping so the host's dead-peer detection stays quiet.
      const auto& ka = *pdu.as<pdu::KeepAlive>();
      if (ka.from_host) {
        pdu::KeepAlive echo;
        echo.from_host = false;
        echo.seq = ka.seq;
        // NTP-style clock echo: reflect the host's transmit stamp and add
        // our own so the initiator can estimate the clock offset.
        echo.echo_t_ns = ka.t_sent_ns;
        echo.t_sent_ns = static_cast<u64>(exec_.now());
        Pdu out;
        out.header = echo;
        keepalives_answered_++;
        telemetry::bump(tel_.keepalives);
        control_.send(std::move(out));
      }
      break;
    }
    case pdu::PduType::kShmDemote:
      // Host demoted the data path at run time: stop staging new payloads
      // in slots; whatever is already parked drains via shm_attached().
      OAF_WARN("target: client demoted shm (%s)",
               pdu.as<pdu::ShmDemote>()->reason.c_str());
      (void)ep_.demote_shm();
      break;
    case pdu::PduType::kAnomalyReq:
      on_anomaly_req(*pdu.as<pdu::AnomalyReq>());
      break;
    case pdu::PduType::kH2CTermReq:
      OAF_WARN("target received TermReq: %s", pdu.as<pdu::TermReq>()->reason.c_str());
      telemetry::tracer().instant(tel_.track, "resilience", "termreq_received",
                                  0, exec_.now());
      (void)telemetry::flight().dump_now("target received TermReq from host");
      control_.close();
      break;
    default:
      OAF_WARN("target: unexpected PDU type %s", pdu::to_string(pdu.type()));
      break;
  }
}

void NvmfTargetConnection::on_icreq(const pdu::ICReq& req) {
  if (opts_.reject_connect) {
    // Admission control: answer with an explicit verdict (so the host backs
    // off instead of diagnosing a dead target) and close. No shm, no KATO,
    // no state — the association exists only long enough to say no.
    pdu::ICResp reject;
    reject.pfv = req.pfv;
    reject.admitted = false;
    reject.retry_after_ms = opts_.reject_retry_after_ms;
    reject.reject_reason = opts_.reject_reason;
    telemetry::tracer().instant(tel_.track, "overload", "connect_rejected", 0,
                                exec_.now());
    OAF_WARN("target %s: rejecting connect (%s)",
             opts_.connection_name.c_str(), opts_.reject_reason.c_str());
    Pdu out;
    out.header = reject;
    control_.send(std::move(out));
    // Defer the hangup one executor turn: queued transports (the sim pipe)
    // drop undelivered PDUs on close, so a synchronous close here would
    // outrun the verdict we just sent.
    exec_.post([this, alive = alive_] {
      exec_serial_.assume_held();
      if (!*alive) return;
      control_.close();
    });
    return;
  }
  if (req.kato_ns > 0) kato_ns_ = static_cast<DurNs>(req.kato_ns);
  data_digest_ = req.data_digest && opts_.af.data_digest;
  cm_.serial()->assume_held();  // cm_ borrowed this connection's serial
  auto resp = cm_.accept_target(req, opts_.connection_name, ep_);
  Pdu out;
  if (!resp) {
    OAF_WARN("handshake failed: %s", resp.status().to_string().c_str());
    pdu::ICResp fallback;
    fallback.pfv = req.pfv;
    fallback.maxh2cdata = static_cast<u32>(opts_.af.chunk_bytes);
    fallback.shm_granted = false;
    fallback.data_digest = data_digest_;
    out.header = fallback;
  } else {
    out.header = resp.value();
  }
  control_.send(std::move(out));
}

u64 NvmfTargetConnection::target_time(const IoCtx& ctx, DurNs io_time) const {
  // Processing time at the target: end-to-end residency minus device time
  // and minus data-path copy residency (which belongs to the breakdown's
  // communication component, Figs 3/12).
  const DurNs spent = exec_.now() - ctx.arrival - io_time - ctx.copy_wait;
  return spent > 0 ? static_cast<u64>(spent) : 0;
}

void NvmfTargetConnection::send_resp(u16 cid, const pdu::NvmeCpl& cpl,
                                     DurNs io_time, std::vector<u8> payload) {
  const telemetry::prof::CostScope cost(telemetry::Stage::kComplete);
  pdu::CapsuleResp resp;
  resp.cpl = cpl;
  resp.io_time_ns = static_cast<u64>(io_time);
  if (const auto it = inflight_.find(cid); it != inflight_.end()) {
    resp.target_time_ns = target_time(it->second, io_time);
    resp.gen = it->second.gen;
  }
  Pdu pdu;
  pdu.header = resp;
  pdu.payload = std::move(payload);
  retire(cid);
  control_.send(std::move(pdu));
}

void NvmfTargetConnection::retire(u16 cid) {
  const auto it = inflight_.find(cid);
  if (it != inflight_.end()) {
    telemetry::tracer().end(tel_.track, "target_io",
                            op_span_name(it->second.cmd.opcode),
                            it->second.span, exec_.now());
    record_attribution(it->second);
    inflight_.erase(it);
  }
  commands_served_++;
  telemetry::bump(tel_.commands);
}

NvmfTargetConnection::IoCtx* NvmfTargetConnection::live(u16 cid, u64 seq) {
  const auto it = inflight_.find(cid);
  return it != inflight_.end() && it->second.seq == seq ? &it->second
                                                        : nullptr;
}

NvmfTargetConnection::IoCtx* NvmfTargetConnection::consume_done(
    u16 cid, u64 seq, const Result<u64>& got, u64 len) {
  zombie_buffers_.erase(seq);  // copy done; zombie (and its charge) can go
  IoCtx* ctx = live(cid, seq);
  if (ctx == nullptr) return nullptr;  // aborted while the copy was in flight
  ctx->copies_in_flight--;
  if (got && got.value() == len) return ctx;
  if (!got) note_consume_failure(got.status());
  send_resp(cid, {cid, NvmeStatus::kDataTransferError, 0}, 0);
  return nullptr;
}

NvmfTargetConnection::IoCtx* NvmfTargetConnection::device_done(u16 cid,
                                                               u64 seq,
                                                               u64 span) {
  telemetry::tracer().end(tel_.track, "target_io", "device", span,
                          exec_.now());
  zombie_buffers_.erase(seq);
  IoCtx* ctx = live(cid, seq);
  if (ctx != nullptr) ctx->device_busy = false;
  return ctx;
}

void NvmfTargetConnection::reject_queue_full(u16 cid, u16 gen,
                                             const char* why) {
  queue_full_rejects_++;
  telemetry::bump(tel_.queue_full);
  telemetry::tracer().instant(tel_.track, "overload", "queue_full", cid,
                              exec_.now());
  OAF_WARN_RL("target %s: kQueueFull for cid %u (%s)",
              opts_.connection_name.c_str(), cid, why);
  pdu::CapsuleResp resp;
  resp.cpl = {cid, NvmeStatus::kQueueFull, 0};
  resp.gen = gen;
  Pdu pdu;
  pdu.header = resp;
  control_.send(std::move(pdu));
}

DurNs NvmfTargetConnection::oldest_inflight_age(TimeNs now) const {
  DurNs oldest = 0;
  for (const auto& [cid, ctx] : inflight_) {
    const DurNs age = now - ctx.arrival;
    if (age > oldest) oldest = age;
  }
  return oldest;
}

bool NvmfTargetConnection::shed_oldest() {
  // Oldest admitted command that nothing else references: a device I/O or
  // an in-flight shm copy pins its buffer, so those must complete normally.
  u16 victim = 0;
  TimeNs best = 0;
  bool found = false;
  for (const auto& [cid, ctx] : inflight_) {
    if (ctx.device_busy || ctx.copies_in_flight > 0) continue;
    if (!found || ctx.arrival < best) {
      found = true;
      best = ctx.arrival;
      victim = cid;
    }
  }
  if (!found) return false;
  commands_shed_++;
  telemetry::bump(tel_.shed);
  telemetry::tracer().instant(tel_.track, "overload", "shed", victim,
                              exec_.now());
  OAF_WARN_RL("target %s: shedding cid %u under overload",
              opts_.connection_name.c_str(), victim);
  cancel(victim, NvmeStatus::kQueueFull);
  return true;
}

void NvmfTargetConnection::cancel(u16 cid, NvmeStatus status) {
  IoCtx& ctx = inflight_.at(cid);
  if (ctx.device_busy || ctx.copies_in_flight > 0) {
    // The device (or an in-flight shm copy) still references the staging
    // buffer; park it with the zombie until that completion fires. The
    // charge moves with it — the memory is still pinned.
    zombie_buffers_[ctx.seq] = std::move(ctx.buffer);
  } else if (ep_.shm_attached()) {
    // Waiting on data: drop whatever the command parked in its slot so the
    // next command to use it starts clean.
    ep_.abandon_slot(cid);
  }
  // Late transfer PDUs for the command are raced, not hostile.
  recently_aborted_.insert(cid);
  send_resp(cid, {cid, status, 0}, 0);
}

void NvmfTargetConnection::evict(const std::string& reason) {
  if (evicted_) return;
  evicted_ = true;
  telemetry::tracer().instant(tel_.track, "overload", "evict", 0, exec_.now());
  OAF_WARN("target %s: evicting association (%s)",
           opts_.connection_name.c_str(), reason.c_str());
  send_term("evicted: " + reason);
  // Defer the hangup one executor turn so the TermReq flushes ahead of it
  // on queued transports; the next reap collects the corpse.
  exec_.post([this, alive = alive_] {
    exec_serial_.assume_held();
    if (!*alive) return;
    control_.close();
  });
}

void NvmfTargetConnection::set_ana_state(pdu::AnaState state,
                                         const std::string& reason) {
  if (state == ana_state_) return;
  ana_state_ = state;
  pdu::AnaLog log;
  log.state = state;
  log.change_seq = ++ana_change_seq_;
  log.reason = reason;
  OAF_WARN("target %s: advertising ana %s (%s)",
           opts_.connection_name.c_str(), pdu::to_string(state),
           reason.c_str());
  telemetry::tracer().instant(tel_.track, "multipath", "ana_advertised",
                              log.change_seq, exec_.now());
  Pdu pdu;
  pdu.header = log;
  control_.send(std::move(pdu));
}

void NvmfTargetConnection::send_term(const std::string& reason) {
  // TermReq tears down the association — exactly the moment the flight
  // recorder exists for.  Dump before the frame goes out.
  telemetry::tracer().instant(tel_.track, "resilience", "termreq_sent", 0,
                              exec_.now());
  (void)telemetry::flight().dump_now(("target sent TermReq: " + reason).c_str());
  pdu::TermReq term;
  term.from_host = false;
  term.fes = 1;
  term.reason = reason;
  Pdu pdu;
  pdu.header = term;
  control_.send(std::move(pdu));
}

// --------------------------------------------------------------------------
// Command capsules
// --------------------------------------------------------------------------

void NvmfTargetConnection::on_capsule(Pdu pdu) {
  const telemetry::prof::CostScope cost(telemetry::Stage::kTarget);
  const auto& capsule = *pdu.as<pdu::CapsuleCmd>();
  const u16 cid = capsule.cmd.cid;
  if (inflight_.contains(cid)) {
    OAF_ERROR("duplicate cid %u: old opcode %d, new opcode %d, inflight=%zu",
              cid, static_cast<int>(inflight_[cid].cmd.opcode),
              static_cast<int>(capsule.cmd.opcode), inflight_.size());
    send_term("duplicate cid");
    return;
  }
  recently_aborted_.erase(cid);  // the cid is live again

  // Overload admission: budgets are checked (and charged) BEFORE any
  // per-command state exists, so a rejected command costs the target
  // nothing but this CapsuleResp. Only data-bearing commands stage bytes;
  // flush/identify/abort are admitted freely (they are how a congested
  // host drains). An unknown namespace skips admission — the ordinary
  // kInvalidNamespace path below answers it.
  af::StagingBuffer staging;
  if (capsule.cmd.is_read() || capsule.cmd.is_write()) {
    ssd::Device* adm_dev = subsystem_.find(capsule.cmd.nsid);
    if (adm_dev != nullptr) {
      if (opts_.max_inflight_cmds != 0 &&
          inflight_.size() >= opts_.max_inflight_cmds) {
        reject_queue_full(cid, capsule.gen, "per-connection inflight cap");
        return;
      }
      // The DPDK-managed staging buffer the device DMA-copies to or from;
      // for writes, the copy from shm into it is the one the paper says
      // cannot be avoided (§4.4.3).
      auto got =
          staging_.acquire(capsule.cmd.data_bytes(adm_dev->block_size()));
      if (!got) {
        reject_queue_full(cid, capsule.gen, got.status().message().c_str());
        return;
      }
      staging = std::move(got).take();
    }
  }

  IoCtx& ctx = inflight_[cid];
  ctx.cmd = capsule.cmd;
  ctx.buffer = std::move(staging);
  ctx.arrival = exec_.now();
  ctx.gen = capsule.gen;
  ctx.seq = next_ctx_seq_++;
  // Trace stitching: adopt the host's trace id as this command's span id so
  // both processes' spans share one async id in the merged timeline. The
  // local seq stays the fencing token — the wire id is host-controlled and
  // must never gate abort/cid-reuse checks.
  ctx.span = capsule.trace_id != 0 ? capsule.trace_id : ctx.seq;
  // The target's half of the stage vocabulary: processing (kTarget) from
  // arrival, kXfer while waiting on write data, kDevice under the device,
  // kComplete while the response/data goes back out.
  ctx.ledger.reset(ctx.arrival, telemetry::Stage::kTarget);
  telemetry::tracer().begin(tel_.track, "target_io",
                            op_span_name(ctx.cmd.opcode), ctx.span,
                            ctx.arrival, "bytes",
                            static_cast<i64>(capsule.data_len));
  governor_.record_op(capsule.cmd.is_write());

  ssd::Device* device = subsystem_.find(capsule.cmd.nsid);
  if (device == nullptr &&
      (capsule.cmd.is_read() || capsule.cmd.is_write() ||
       capsule.cmd.opcode == NvmeOpcode::kFlush)) {
    send_resp(cid, {cid, NvmeStatus::kInvalidNamespace, 0}, 0);
    return;
  }

  switch (capsule.cmd.opcode) {
    case NvmeOpcode::kWrite: {
      const u64 len = capsule.cmd.data_bytes(device->block_size());
      if (capsule.data_len != len) {
        send_resp(cid, {cid, NvmeStatus::kInvalidField, 0}, 0);
        return;
      }

      if (capsule.in_capsule_data) {
        ctx.ledger.enter(telemetry::Stage::kXfer, exec_.now());
        if (capsule.placement == DataPlacement::kShmSlot) {
          // shm_attached (not shm_ready): a payload parked before a runtime
          // demotion must still drain from its slot.
          if (!ep_.shm_attached()) {
            send_resp(cid, {cid, NvmeStatus::kDataTransferError, 0}, 0);
            return;
          }
          const TimeNs copy_start = exec_.now();
          ctx.copies_in_flight++;
          ep_.consume_payload(
              capsule.shm_slot, ctx.buffer.span(),
              [this, alive = alive_, cid, seq = ctx.seq, len,
               copy_start](Result<u64> got) {
                exec_serial_.assume_held();  // consume posts on the reactor
                if (!*alive) return;
                IoCtx* c = consume_done(cid, seq, got, len);
                if (c == nullptr) return;
                c->copy_wait += exec_.now() - copy_start;
                start_device_write(cid);
              });
        } else {
          if (pdu.payload.size() != len) {
            send_resp(cid, {cid, NvmeStatus::kDataTransferError, 0}, 0);
            return;
          }
          std::memcpy(ctx.buffer.data(), pdu.payload.data(), len);
          start_device_write(cid);
        }
        return;
      }

      // Conservative flow: grant the transfer window (Fig 7 step 2).
      pdu::R2T r2t;
      r2t.cid = cid;
      r2t.ttag = cid;
      r2t.offset = 0;
      r2t.length = len;
      r2t.gen = ctx.gen;
      ctx.ledger.enter(telemetry::Stage::kXfer, exec_.now());
      r2ts_sent_++;
      telemetry::bump(tel_.r2ts);
      if (telemetry::tracer().enabled()) {
        telemetry::tracer().instant(tel_.track, "target_io", "r2t_sent",
                                    ctx.span, exec_.now(), "bytes",
                                    static_cast<i64>(len));
      }
      Pdu out;
      out.header = r2t;
      control_.send(std::move(out));
      return;
    }
    case NvmeOpcode::kRead:
      handle_read(cid);
      return;
    case NvmeOpcode::kAbort:
      handle_abort(cid);
      return;
    default:
      handle_admin(cid);
      return;
  }
}

void NvmfTargetConnection::handle_abort(u16 cid) {
  const auto it = inflight_.find(cid);
  if (it == inflight_.end()) return;
  const u16 victim = it->second.cmd.abort_cid;
  const u16 vgen = it->second.cmd.abort_gen;
  aborts_handled_++;
  telemetry::bump(tel_.aborts_handled);
  telemetry::tracer().instant(tel_.track, "resilience", "abort_handled",
                              it->second.span, exec_.now());
  // cpl.result: 0 = victim found and cancelled, 1 = no record of the victim
  // (its capsule or completion was lost; the host replays it).
  u64 result = 1;
  const auto vit = inflight_.find(victim);
  if (vit != inflight_.end() && victim != cid &&
      (vgen == 0 || vit->second.gen == 0 || vit->second.gen == vgen)) {
    commands_aborted_++;
    telemetry::bump(tel_.cmds_aborted);
    result = 0;
    OAF_WARN_RL("target: aborting cid %u (device_busy=%d)", victim,
             static_cast<int>(vit->second.device_busy));
    // Victim completion first, then the abort's own — the host normally
    // closes the victim off the former and only consults the latter when
    // the victim's completion was itself lost.
    cancel(victim, NvmeStatus::kAbortedByRequest);
  }
  send_resp(cid, {cid, NvmeStatus::kSuccess, result}, 0);
}

void NvmfTargetConnection::on_h2c(Pdu pdu) {
  const auto& h2c = *pdu.as<pdu::H2CData>();
  const u16 cid = h2c.cid;
  const auto it = inflight_.find(cid);
  if (it == inflight_.end()) {
    if (recently_aborted_.count(cid) != 0) {
      // A transfer PDU that raced the abort: expected, not hostile. If it
      // announces a shm payload, drop whatever is parked in the slot so the
      // next owner starts clean.
      if (h2c.placement == DataPlacement::kShmSlot && ep_.shm_attached()) {
        ep_.abandon_slot(h2c.shm_slot);
      }
      return;
    }
    send_term("H2CData for unknown cid");
    return;
  }
  IoCtx& ctx = it->second;
  if (h2c.gen != 0 && ctx.gen != 0 && h2c.gen != ctx.gen) {
    OAF_WARN_RL("stale H2CData for cid %u (gen %u != %u)", cid, h2c.gen, ctx.gen);
    return;
  }
  // Chunks arrive in order: one that overlaps or skips past the last
  // accepted one would leave part of the staging buffer unwritten.
  if (h2c.offset != ctx.next_offset ||
      !pdu::range_fits(h2c.offset, h2c.length, ctx.buffer.size())) {
    send_resp(cid, {cid, NvmeStatus::kDataTransferError, 0}, 0);
    return;
  }

  if (h2c.placement == DataPlacement::kShmSlot) {
    if (!ep_.shm_attached()) {
      send_resp(cid, {cid, NvmeStatus::kDataTransferError, 0}, 0);
      return;
    }
    ctx.next_offset += h2c.length;
    ctx.copies_in_flight++;
    ep_.consume_payload(
        h2c.shm_slot,
        std::span<u8>(ctx.buffer.data() + h2c.offset, h2c.length),
        [this, alive = alive_, cid, seq = ctx.seq,
         len = h2c.length](Result<u64> got) {
          exec_serial_.assume_held();  // consume posts on the reactor
          if (!*alive) return;
          IoCtx* c = consume_done(cid, seq, got, len);
          if (c == nullptr) return;
          c->bytes_received += len;
          if (c->bytes_received >= c->buffer.size()) start_device_write(cid);
        });
    return;
  }

  if (pdu.payload.size() != h2c.length) {
    send_resp(cid, {cid, NvmeStatus::kDataTransferError, 0}, 0);
    return;
  }
  if (data_digest_ && h2c.data_digest != 0) {
    const u32 computed = pdu::crc32c(
        std::span<const u8>(pdu.payload.data(), pdu.payload.size()));
    if (computed != h2c.data_digest) {
      digest_errors_++;
      telemetry::bump(tel_.digest_errors);
      OAF_WARN_RL("H2CData digest mismatch for cid %u", cid);
      // Retryable at the host: the command replays on a fresh gen rather
      // than landing corrupt bytes on the device.
      send_resp(cid, {cid, NvmeStatus::kTransientTransportError, 0}, 0);
      return;
    }
  }
  std::memcpy(ctx.buffer.data() + h2c.offset, pdu.payload.data(), h2c.length);
  ctx.next_offset += h2c.length;
  ctx.bytes_received += h2c.length;
  if (ctx.bytes_received >= ctx.buffer.size()) {
    start_device_write(cid);
  }
}

// --------------------------------------------------------------------------
// Device execution
// --------------------------------------------------------------------------

void NvmfTargetConnection::start_device_write(u16 cid) {
  auto it = inflight_.find(cid);
  if (it == inflight_.end()) return;
  IoCtx& ctx = it->second;
  ssd::Device* device = subsystem_.find(ctx.cmd.nsid);
  bytes_written_ += ctx.buffer.size();
  telemetry::bump(tel_.bytes_written, ctx.buffer.size());
  ctx.device_busy = true;
  ctx.ledger.enter(telemetry::Stage::kDevice, exec_.now());
  telemetry::tracer().begin(tel_.track, "target_io", "device", ctx.span,
                            exec_.now(), "bytes",
                            static_cast<i64>(ctx.buffer.size()));
  device->submit_write(ctx.cmd, ctx.buffer.span(),
                       [this, alive = alive_, cid, seq = ctx.seq,
                        span = ctx.span](pdu::NvmeCpl cpl, DurNs io_time) {
                         exec_serial_.assume_held();  // device completes here
                         if (!*alive) return;
                         IoCtx* c = device_done(cid, seq, span);
                         if (c == nullptr) return;  // aborted: swallowed
                         c->ledger.enter(telemetry::Stage::kComplete,
                                         exec_.now());
                         send_resp(cid, cpl, io_time);
                       });
}

void NvmfTargetConnection::handle_read(u16 cid) {
  auto it = inflight_.find(cid);
  if (it == inflight_.end()) return;
  IoCtx& ctx = it->second;
  ssd::Device* device = subsystem_.find(ctx.cmd.nsid);
  ctx.device_busy = true;
  ctx.ledger.enter(telemetry::Stage::kDevice, exec_.now());
  telemetry::tracer().begin(tel_.track, "target_io", "device", ctx.span,
                            exec_.now(), "bytes",
                            static_cast<i64>(ctx.buffer.size()));
  device->submit_read(ctx.cmd, ctx.buffer.span(),
                      [this, alive = alive_, cid, seq = ctx.seq,
                       span = ctx.span](pdu::NvmeCpl cpl, DurNs io_time) {
                        exec_serial_.assume_held();  // device completes here
                        if (!*alive) return;
                        IoCtx* c = device_done(cid, seq, span);
                        if (c != nullptr) finish_read(*c, cpl, io_time);
                      });
}

void NvmfTargetConnection::finish_read(IoCtx& ctx, pdu::NvmeCpl cpl,
                                       DurNs io_time) {
  const u16 cid = ctx.cmd.cid;
  ctx.ledger.enter(telemetry::Stage::kComplete, exec_.now());
  if (!cpl.ok()) {
    send_resp(cid, cpl, io_time);
    return;
  }
  bytes_read_ += ctx.buffer.size();
  telemetry::bump(tel_.bytes_read, ctx.buffer.size());

  const bool fold_completion = af::read_success_flag(opts_.af, ep_.shm_ready());

  if (ep_.shm_ready()) {
    if (fold_completion) {
      // Optimized shm flow: the whole payload parks in its slot, one
      // notification with the SUCCESS flag closes the command (§4.4.2).
      const TimeNs copy_start = exec_.now();
      const Status st = ep_.stage_payload(
          cid, ctx.buffer.span(),
          [this, alive = alive_, cid, seq = ctx.seq, io_time, copy_start] {
            exec_serial_.assume_held();
            if (!*alive) return;
            IoCtx* c = live(cid, seq);
            if (c == nullptr) {
              // Aborted mid-stage: the published payload has no consumer —
              // drop it so the slot's next owner starts clean.
              ep_.abandon_slot(cid);
              return;
            }
            c->copy_wait += exec_.now() - copy_start;
            pdu::C2HData c2h;
            c2h.cid = cid;
            c2h.offset = 0;
            c2h.length = c->buffer.size();
            c2h.last = true;
            c2h.success = true;
            c2h.placement = DataPlacement::kShmSlot;
            c2h.shm_slot = cid;
            c2h.io_time_ns = static_cast<u64>(io_time);
            c2h.target_time_ns = target_time(*c, io_time);
            c2h.gen = c->gen;
            Pdu pdu;
            pdu.header = c2h;
            retire(cid);
            control_.send(std::move(pdu));
          });
      if (!st) {
        send_resp(cid, {cid, NvmeStatus::kDataTransferError, 0}, io_time);
      }
      return;
    }
    // Conservative flow on shm (pre-optimization design): the payload moves
    // through the slot one maxh2cdata-sized chunk at a time — each chunk
    // waits for the client to drain the previous one, and every chunk costs
    // an out-of-band notification. This chunk serialization plus the extra
    // messages is precisely what the shm flow control removes.
    shm_read_chunk(cid, 0, cpl, io_time);
    return;
  }

  // TCP: stream inline chunks of the configured chunk size (§4.5).
  const auto chunks = af::make_chunks(ctx.buffer.size(), opts_.af.chunk_bytes);
  for (const auto& c : chunks) {
    pdu::C2HData c2h;
    c2h.cid = cid;
    c2h.offset = c.offset;
    c2h.length = c.length;
    c2h.last = c.last;
    c2h.success = c.last && fold_completion;
    c2h.placement = DataPlacement::kInline;
    c2h.gen = ctx.gen;
    if (c.last) {
      c2h.io_time_ns = static_cast<u64>(io_time);
      c2h.target_time_ns = target_time(ctx, io_time);
    }
    Pdu pdu;
    pdu.payload.assign(ctx.buffer.data() + c.offset,
                       ctx.buffer.data() + c.offset + c.length);
    if (data_digest_) {
      c2h.data_digest = pdu::crc32c(
          std::span<const u8>(pdu.payload.data(), pdu.payload.size()));
    }
    pdu.header = c2h;
    control_.send(std::move(pdu));
  }
  if (fold_completion) {
    retire(cid);
  } else {
    send_resp(cid, cpl, io_time);
  }
}

// --------------------------------------------------------------------------
// Tail-latency attribution & anomaly capture (DESIGN.md §13)
// --------------------------------------------------------------------------

void NvmfTargetConnection::record_attribution(const IoCtx& ctx) {
  if (!ctx.cmd.is_read() && !ctx.cmd.is_write()) return;
  auto& attr = telemetry::attribution();
  if (!attr.enabled()) return;
  const TimeNs now = exec_.now();
  telemetry::StageLedger ledger = ctx.ledger;
  ledger.close(now);
  const i64 total_ns = now - ctx.arrival;
  const telemetry::OpClass op = ctx.cmd.is_write()
                                    ? telemetry::OpClass::kWrite
                                    : telemetry::OpClass::kRead;
  if (!attr.record(op, ledger, total_ns, ctx.span, now)) return;
  if (!opts_.capture_local_breaches) return;
  // Target-side breach: capture the local half only. The host drives the
  // cross-process capture for breaches it observes end-to-end.
  auto& rec = telemetry::anomaly();
  if (auto actx = rec.claim(ctx.span, op, total_ns, ledger, now)) {
    rec.capture(*actx);
  }
}

void NvmfTargetConnection::on_anomaly_req(const pdu::AnomalyReq& req) {
  auto& rec = telemetry::anomaly();
  // The window arrives already translated onto our clock; subtracting the
  // offset from every emitted timestamp sends the events back on the
  // requester's clock, so it embeds them without rewriting.
  const std::string events =
      rec.events_json(req.trace_id, req.t_from_ns, req.t_to_ns,
                      -req.offset_ns, rec.options().max_events);
  pdu::AnomalyResp resp;
  resp.trace_id = req.trace_id;
  resp.pid = static_cast<u64>(::getpid());
  // events_json emits flat objects, so top-level '{' count == event count.
  resp.event_count =
      static_cast<u32>(std::count(events.begin(), events.end(), '{'));
  Pdu out;
  out.header = resp;
  out.payload.assign(events.begin(), events.end());
  control_.send(std::move(out));
}

void NvmfTargetConnection::shm_read_chunk(u16 cid, u64 offset,
                                          pdu::NvmeCpl cpl, DurNs io_time) {
  const auto it = inflight_.find(cid);
  if (it == inflight_.end()) return;
  IoCtx& ctx = it->second;
  const u64 total = ctx.buffer.size();
  const u64 chunk = std::min<u64>(opts_.af.chunk_bytes, total - offset);
  const bool last = offset + chunk >= total;
  ep_.stage_payload_when_free(
      cid, std::span<const u8>(ctx.buffer.data() + offset, chunk),
      [this, alive = alive_, cid, seq = ctx.seq, offset, chunk, last, cpl,
       io_time, gen = ctx.gen] {
        exec_serial_.assume_held();
        if (!*alive) return;
        if (live(cid, seq) == nullptr) {
          ep_.abandon_slot(cid);  // aborted mid-stage: drop the orphan chunk
          return;
        }
        pdu::C2HData c2h;
        c2h.cid = cid;
        c2h.offset = offset;
        c2h.length = chunk;
        c2h.last = last;
        c2h.success = false;
        c2h.placement = DataPlacement::kShmSlot;
        c2h.shm_slot = cid;
        c2h.gen = gen;
        Pdu pdu;
        pdu.header = c2h;
        control_.send(std::move(pdu));
        if (last) {
          send_resp(cid, cpl, io_time);
        } else {
          shm_read_chunk(cid, offset + chunk, cpl, io_time);
        }
      },
      // An aborted read must not keep parking chunks in the slot.
      [this, alive = alive_, cid, seq = ctx.seq] {
        exec_serial_.assume_held();
        return !*alive || live(cid, seq) == nullptr;
      });
}

void NvmfTargetConnection::handle_admin(u16 cid) {
  auto it = inflight_.find(cid);
  if (it == inflight_.end()) return;
  IoCtx& ctx = it->second;

  if (ctx.cmd.opcode == NvmeOpcode::kIdentify) {
    ssd::Device* device = subsystem_.find(ctx.cmd.nsid);
    pdu::NvmeCpl cpl{cid, NvmeStatus::kSuccess, 0};
    std::vector<u8> payload;
    if (device == nullptr) {
      cpl.status = NvmeStatus::kInvalidNamespace;
    } else {
      payload.resize(12);
      const u32 bs = device->block_size();
      const u64 nb = device->num_blocks();
      for (int i = 0; i < 4; ++i) payload[i] = static_cast<u8>(bs >> (8 * i));
      for (int i = 0; i < 8; ++i) payload[4 + i] = static_cast<u8>(nb >> (8 * i));
    }
    send_resp(cid, cpl, 0, std::move(payload));
    return;
  }

  if (ctx.cmd.opcode == NvmeOpcode::kFlush) {
    ssd::Device* device = subsystem_.find(ctx.cmd.nsid);
    ctx.device_busy = true;
    telemetry::tracer().begin(tel_.track, "target_io", "device", ctx.span,
                              exec_.now());
    device->submit_other(
        ctx.cmd, [this, alive = alive_, cid, seq = ctx.seq,
                  span = ctx.span](pdu::NvmeCpl cpl, DurNs io_time) {
          exec_serial_.assume_held();  // device completes here
          if (!*alive) return;
          if (device_done(cid, seq, span) == nullptr) return;
          send_resp(cid, cpl, io_time);
        });
    return;
  }

  send_resp(cid, {cid, NvmeStatus::kInvalidOpcode, 0}, 0);
}

void NvmfTargetConnection::note_consume_failure(const Status& st) {
  if (st.code() != StatusCode::kPeerMisbehavior) return;
  if (!ep_.demote_shm()) return;
  OAF_WARN("target: demoting shm after peer protocol violation (%s)",
           st.to_string().c_str());
  // Tell the host to stop producing into the ring too; its handler is
  // idempotent, so the echo it may send back is a no-op here.
  pdu::ShmDemote demote;
  demote.reason = "target fencing: " + st.to_string();
  Pdu out;
  out.header = demote;
  control_.send(std::move(out));
}

u32 NvmfTargetConnection::sweep_orphan_slots(DurNs fallback) {
  const DurNs window = kato_ns_ > 0 ? kato_ns_ : fallback;
  return ep_.sweep_orphans(window);
}

}  // namespace oaf::nvmf
