#include "decorators.h"

namespace oaf::e2e {

using trace::Counter;
using trace::Side;
using trace::SpanName;

namespace {

/// Command id a PDU carries, or trace::kNoCid.
u32 cid_of(const pdu::Pdu& p) {
  if (const auto* c = p.as<pdu::CapsuleCmd>()) return c->cmd.cid;
  if (const auto* c = p.as<pdu::CapsuleResp>()) return c->cpl.cid;
  if (const auto* c = p.as<pdu::R2T>()) return c->cid;
  if (const auto* c = p.as<pdu::H2CData>()) return c->cid;
  if (const auto* c = p.as<pdu::C2HData>()) return c->cid;
  return trace::kNoCid;
}

ssd::Device::Completion timed_completion(ssd::Device::Completion done,
                                         u16 cid) {
  return [cid, done = std::move(done)](pdu::NvmeCpl cpl, DurNs io_time) mutable {
    const trace::Span span(SpanName::kTargetCpl, cid);
    std::move(done)(cpl, io_time);
  };
}

}  // namespace

// --- TimedChannel ----------------------------------------------------------

void TimedChannel::send(pdu::Pdu p) {
  if (!trace::on()) {
    inner_->send(std::move(p));
    return;
  }
  const bool client = side_ == Side::kClient;
  trace::count_pdu(side_, p.type());
  trace::capture_pdu(p);
  const u64 bytes_before = inner_->bytes_sent();
  {
    const trace::Span span(client ? SpanName::kClientSend : SpanName::kTargetSend,
                           cid_of(p));
    inner_->send(std::move(p));
  }
  trace::add(client ? Counter::kClientWireBytes : Counter::kTargetWireBytes,
             inner_->bytes_sent() - bytes_before);
}

void TimedChannel::set_handler(Handler handler) {
  const SpanName rx =
      side_ == Side::kClient ? SpanName::kClientRx : SpanName::kTargetRx;
  inner_->set_handler([rx, handler = std::move(handler)](pdu::Pdu p) {
    const trace::Span span(rx, cid_of(p));
    handler(std::move(p));
  });
}

// --- TimedDevice -----------------------------------------------------------

void TimedDevice::submit_write(const pdu::NvmeCmd& cmd,
                               std::span<const u8> data, Completion done) {
  if (!trace::on()) {
    inner_.submit_write(cmd, data, std::move(done));
    return;
  }
  trace::add(Counter::kSsdOps);
  trace::add(Counter::kSsdBytes, data.size());
  const trace::Span span(SpanName::kSsdSubmit, cmd.cid);
  inner_.submit_write(cmd, data, timed_completion(std::move(done), cmd.cid));
}

void TimedDevice::submit_read(const pdu::NvmeCmd& cmd, std::span<u8> out,
                              Completion done) {
  if (!trace::on()) {
    inner_.submit_read(cmd, out, std::move(done));
    return;
  }
  trace::add(Counter::kSsdOps);
  trace::add(Counter::kSsdBytes, out.size());
  const trace::Span span(SpanName::kSsdSubmit, cmd.cid);
  inner_.submit_read(cmd, out, timed_completion(std::move(done), cmd.cid));
}

void TimedDevice::submit_other(const pdu::NvmeCmd& cmd, Completion done) {
  if (!trace::on()) {
    inner_.submit_other(cmd, std::move(done));
    return;
  }
  trace::add(Counter::kSsdOps);
  const trace::Span span(SpanName::kSsdSubmit, cmd.cid);
  inner_.submit_other(cmd, timed_completion(std::move(done), cmd.cid));
}

// --- CountingCopier --------------------------------------------------------

void CountingCopier::copy(std::span<const u8> src, std::span<u8> dst,
                          Done done) {
  if (!trace::on()) {
    inner_.copy(src, dst, std::move(done));
    return;
  }
  const bool client = side_ == Side::kClient;
  trace::add(client ? Counter::kClientCopies : Counter::kTargetCopies);
  trace::add(client ? Counter::kClientCopyBytes : Counter::kTargetCopyBytes,
             src.size());
  // The span ends when the inner copier signals done, before the engine's
  // continuation runs: what follows the copy is the caller's work.
  const trace::Token t =
      trace::begin(client ? SpanName::kClientCopy : SpanName::kTargetCopy);
  inner_.copy(src, dst, [t, done = std::move(done)] {
    trace::end(t);
    done();
  });
}

// --- TimedSession ----------------------------------------------------------

nvmf::IoSession::IoCb TimedSession::wrap(IoCb cb) {
  return [io = next_io_++, submitted = trace::now_ns(),
          cb = std::move(cb)](IoResult r) mutable {
    trace::io_done(io, r.cpl.cid, submitted, trace::now_ns());
    std::move(cb)(r);
  };
}

void TimedSession::write(u32 nsid, u64 slba, std::span<const u8> data,
                         IoCb cb) {
  if (!trace::on()) {
    inner_.write(nsid, slba, data, std::move(cb));
    return;
  }
  const trace::Span span(SpanName::kClientSubmit);
  inner_.write(nsid, slba, data, wrap(std::move(cb)));
}

void TimedSession::read(u32 nsid, u64 slba, std::span<u8> out, IoCb cb) {
  if (!trace::on()) {
    inner_.read(nsid, slba, out, std::move(cb));
    return;
  }
  const trace::Span span(SpanName::kClientSubmit);
  inner_.read(nsid, slba, out, wrap(std::move(cb)));
}

Result<nvmf::IoSession::WriteTicket> TimedSession::zero_copy_write_begin(
    u64 len) {
  const trace::Span span(SpanName::kClientSubmit);
  return inner_.zero_copy_write_begin(len);
}

void TimedSession::zero_copy_write(const WriteTicket& ticket, u32 nsid,
                                   u64 slba, u64 len, IoCb cb) {
  if (!trace::on()) {
    inner_.zero_copy_write(ticket, nsid, slba, len, std::move(cb));
    return;
  }
  const trace::Span span(SpanName::kClientSubmit, ticket.cid);
  inner_.zero_copy_write(ticket, nsid, slba, len, wrap(std::move(cb)));
}

void TimedSession::zero_copy_read(u32 nsid, u64 slba, u64 len, ReadViewCb cb) {
  if (!trace::on()) {
    inner_.zero_copy_read(nsid, slba, len, std::move(cb));
    return;
  }
  const trace::Span span(SpanName::kClientSubmit);
  inner_.zero_copy_read(
      nsid, slba, len,
      [io = next_io_++, submitted = trace::now_ns(), cb = std::move(cb)](
          Result<ReadView> view, IoResult r) mutable {
        trace::io_done(io, r.cpl.cid, submitted, trace::now_ns());
        std::move(cb)(std::move(view), r);
      });
}

}  // namespace oaf::e2e
