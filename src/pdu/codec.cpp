#include "pdu/codec.h"

#include <cstring>

#include "pdu/crc32.h"
#include "pdu/wire_contract.h"

namespace oaf::pdu {

namespace {

constexpr u64 kCommonHeaderBytes = kWireCommonHeaderBytes;
constexpr u8 kFlagHeaderDigest = 0x01;

class Writer {
 public:
  explicit Writer(std::vector<u8>& out) : out_(out) {}

  void u8_(u8 v) { out_.push_back(v); }
  void u16_(u16 v) {
    out_.push_back(static_cast<u8>(v));
    out_.push_back(static_cast<u8>(v >> 8));
  }
  void u32_(u32 v) {
    for (int i = 0; i < 4; ++i) out_.push_back(static_cast<u8>(v >> (8 * i)));
  }
  void u64_(u64 v) {
    for (int i = 0; i < 8; ++i) out_.push_back(static_cast<u8>(v >> (8 * i)));
  }
  void bool_(bool v) { u8_(v ? 1 : 0); }
  void str_(const std::string& s) {
    u32_(static_cast<u32>(s.size()));
    out_.insert(out_.end(), s.begin(), s.end());
  }

 private:
  std::vector<u8>& out_;
};

class Reader {
 public:
  explicit Reader(std::span<const u8> in) : in_(in) {}

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] u64 consumed() const { return pos_; }
  /// Unread bytes left in the typed header. Used to decode fields appended
  /// by newer protocol revisions only when the peer actually sent them —
  /// a short (older-peer) header decodes cleanly with defaulted values.
  [[nodiscard]] u64 remaining() const {
    return ok_ ? in_.size() - pos_ : 0;
  }

  u8 u8_() {
    if (!need(1)) return 0;
    return in_[pos_++];
  }
  u16 u16_() {
    if (!need(2)) return 0;
    u16 v = static_cast<u16>(in_[pos_] | (in_[pos_ + 1] << 8));
    pos_ += 2;
    return v;
  }
  u32 u32_() {
    if (!need(4)) return 0;
    u32 v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<u32>(in_[pos_ + i]) << (8 * i);
    pos_ += 4;
    return v;
  }
  u64 u64_() {
    if (!need(8)) return 0;
    u64 v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<u64>(in_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return v;
  }
  bool bool_() { return u8_() != 0; }
  std::string str_() {
    const u32 len = u32_();
    if (!ok_ || !need(len)) return {};
    std::string s(reinterpret_cast<const char*>(in_.data() + pos_), len);
    pos_ += len;
    return s;
  }

 private:
  bool need(u64 n) {
    if (pos_ + n > in_.size()) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::span<const u8> in_;
  u64 pos_ = 0;
  bool ok_ = true;
};

void encode_cmd(Writer& w, const NvmeCmd& cmd) {
  w.u8_(static_cast<u8>(cmd.opcode));
  w.u16_(cmd.cid);
  w.u32_(cmd.nsid);
  w.u64_(cmd.slba);
  w.u32_(cmd.nlb);
  w.u16_(cmd.abort_cid);
  w.u16_(cmd.abort_gen);
}

NvmeCmd decode_cmd(Reader& r) {
  NvmeCmd cmd;
  cmd.opcode = static_cast<NvmeOpcode>(r.u8_());
  cmd.cid = r.u16_();
  cmd.nsid = r.u32_();
  cmd.slba = r.u64_();
  cmd.nlb = r.u32_();
  cmd.abort_cid = r.u16_();
  cmd.abort_gen = r.u16_();
  return cmd;
}

void encode_header(Writer& w, const PduHeader& header) {
  std::visit(
      [&w](const auto& h) {
        using T = std::decay_t<decltype(h)>;
        if constexpr (std::is_same_v<T, ICReq>) {
          w.u16_(h.pfv);
          w.u8_(h.hpda);
          w.bool_(h.header_digest);
          w.u32_(h.maxr2t);
          w.u64_(h.node_token);
          w.bool_(h.want_shm);
          w.bool_(h.data_digest);
          w.u64_(h.kato_ns);
          w.bool_(h.trace_ctx);
          w.u64_(h.t_sent_ns);
        } else if constexpr (std::is_same_v<T, ICResp>) {
          w.u16_(h.pfv);
          w.bool_(h.header_digest);
          w.u32_(h.maxh2cdata);
          w.bool_(h.shm_granted);
          w.u64_(h.shm_bytes);
          w.u32_(h.shm_slots);
          w.str_(h.shm_name);
          w.bool_(h.data_digest);
          w.bool_(h.trace_ctx);
          w.u64_(h.echo_t_ns);
          w.u64_(h.t_now_ns);
          w.bool_(h.admitted);
          w.u32_(h.retry_after_ms);
          w.str_(h.reject_reason);
        } else if constexpr (std::is_same_v<T, CapsuleCmd>) {
          encode_cmd(w, h.cmd);
          w.u8_(static_cast<u8>(h.placement));
          w.bool_(h.in_capsule_data);
          w.u32_(h.shm_slot);
          w.u64_(h.data_len);
          w.u16_(h.gen);
          w.u64_(h.trace_id);
          w.u64_(h.parent_span);
        } else if constexpr (std::is_same_v<T, CapsuleResp>) {
          w.u16_(h.cpl.cid);
          w.u16_(static_cast<u16>(h.cpl.status));
          w.u64_(h.cpl.result);
          w.u64_(h.io_time_ns);
          w.u64_(h.target_time_ns);
          w.u16_(h.gen);
        } else if constexpr (std::is_same_v<T, R2T>) {
          w.u16_(h.cid);
          w.u16_(h.ttag);
          w.u64_(h.offset);
          w.u64_(h.length);
          w.u16_(h.gen);
        } else if constexpr (std::is_same_v<T, H2CData>) {
          w.u16_(h.cid);
          w.u16_(h.ttag);
          w.u64_(h.offset);
          w.u64_(h.length);
          w.bool_(h.last);
          w.u8_(static_cast<u8>(h.placement));
          w.u32_(h.shm_slot);
          w.u16_(h.gen);
          w.u32_(h.data_digest);
        } else if constexpr (std::is_same_v<T, C2HData>) {
          w.u16_(h.cid);
          w.u64_(h.offset);
          w.u64_(h.length);
          w.bool_(h.last);
          w.bool_(h.success);
          w.u8_(static_cast<u8>(h.placement));
          w.u32_(h.shm_slot);
          w.u64_(h.io_time_ns);
          w.u64_(h.target_time_ns);
          w.u16_(h.gen);
          w.u32_(h.data_digest);
        } else if constexpr (std::is_same_v<T, TermReq>) {
          w.bool_(h.from_host);
          w.u16_(h.fes);
          w.str_(h.reason);
        } else if constexpr (std::is_same_v<T, KeepAlive>) {
          w.bool_(h.from_host);
          w.u64_(h.seq);
          w.u64_(h.t_sent_ns);
          w.u64_(h.echo_t_ns);
        } else if constexpr (std::is_same_v<T, ShmDemote>) {
          w.str_(h.reason);
        } else if constexpr (std::is_same_v<T, AnaLog>) {
          w.u8_(static_cast<u8>(h.state));
          w.u64_(h.change_seq);
          w.str_(h.reason);
        } else if constexpr (std::is_same_v<T, AnomalyReq>) {
          w.u64_(h.trace_id);
          w.u64_(static_cast<u64>(h.t_from_ns));
          w.u64_(static_cast<u64>(h.t_to_ns));
          w.u64_(static_cast<u64>(h.offset_ns));
        } else if constexpr (std::is_same_v<T, AnomalyResp>) {
          w.u64_(h.trace_id);
          w.u64_(h.pid);
          w.u32_(h.event_count);
        }
      },
      header);
}

Result<PduHeader> decode_header(PduType type, Reader& r) {
  switch (type) {
    case PduType::kICReq: {
      ICReq h;
      h.pfv = r.u16_();
      h.hpda = r.u8_();
      h.header_digest = r.bool_();
      h.maxr2t = r.u32_();
      h.node_token = r.u64_();
      h.want_shm = r.bool_();
      h.data_digest = r.bool_();
      h.kato_ns = r.u64_();
      if (r.remaining() >= 1 + 8) {  // rev 2: trace-context offer
        h.trace_ctx = r.bool_();
        h.t_sent_ns = r.u64_();
      }
      return PduHeader{h};
    }
    case PduType::kICResp: {
      ICResp h;
      h.pfv = r.u16_();
      h.header_digest = r.bool_();
      h.maxh2cdata = r.u32_();
      h.shm_granted = r.bool_();
      h.shm_bytes = r.u64_();
      h.shm_slots = r.u32_();
      h.shm_name = r.str_();
      h.data_digest = r.bool_();
      if (r.remaining() >= 1 + 8 + 8) {  // rev 2: trace-context + clock echo
        h.trace_ctx = r.bool_();
        h.echo_t_ns = r.u64_();
        h.t_now_ns = r.u64_();
      }
      // rev 4: admission verdict (1 + 4 fixed bytes + the reject reason's
      // u32 length prefix). Short (older-peer) headers default to admitted.
      if (r.remaining() >= 1 + 4 + 4) {
        h.admitted = r.bool_();
        h.retry_after_ms = r.u32_();
        h.reject_reason = r.str_();
      }
      return PduHeader{h};
    }
    case PduType::kCapsuleCmd: {
      CapsuleCmd h;
      h.cmd = decode_cmd(r);
      h.placement = static_cast<DataPlacement>(r.u8_());
      h.in_capsule_data = r.bool_();
      h.shm_slot = r.u32_();
      h.data_len = r.u64_();
      h.gen = r.u16_();
      if (r.remaining() >= 8 + 8) {  // rev 2: trace context
        h.trace_id = r.u64_();
        h.parent_span = r.u64_();
      }
      return PduHeader{h};
    }
    case PduType::kCapsuleResp: {
      CapsuleResp h;
      h.cpl.cid = r.u16_();
      h.cpl.status = static_cast<NvmeStatus>(r.u16_());
      h.cpl.result = r.u64_();
      h.io_time_ns = r.u64_();
      h.target_time_ns = r.u64_();
      h.gen = r.u16_();
      return PduHeader{h};
    }
    case PduType::kR2T: {
      R2T h;
      h.cid = r.u16_();
      h.ttag = r.u16_();
      h.offset = r.u64_();
      h.length = r.u64_();
      h.gen = r.u16_();
      return PduHeader{h};
    }
    case PduType::kH2CData: {
      H2CData h;
      h.cid = r.u16_();
      h.ttag = r.u16_();
      h.offset = r.u64_();
      h.length = r.u64_();
      h.last = r.bool_();
      h.placement = static_cast<DataPlacement>(r.u8_());
      h.shm_slot = r.u32_();
      h.gen = r.u16_();
      h.data_digest = r.u32_();
      return PduHeader{h};
    }
    case PduType::kC2HData: {
      C2HData h;
      h.cid = r.u16_();
      h.offset = r.u64_();
      h.length = r.u64_();
      h.last = r.bool_();
      h.success = r.bool_();
      h.placement = static_cast<DataPlacement>(r.u8_());
      h.shm_slot = r.u32_();
      h.io_time_ns = r.u64_();
      h.target_time_ns = r.u64_();
      h.gen = r.u16_();
      h.data_digest = r.u32_();
      return PduHeader{h};
    }
    case PduType::kH2CTermReq:
    case PduType::kC2HTermReq: {
      TermReq h;
      h.from_host = r.bool_();
      h.fes = r.u16_();
      h.reason = r.str_();
      return PduHeader{h};
    }
    case PduType::kKeepAlive: {
      KeepAlive h;
      h.from_host = r.bool_();
      h.seq = r.u64_();
      if (r.remaining() >= 8 + 8) {  // rev 2: clock-offset echo
        h.t_sent_ns = r.u64_();
        h.echo_t_ns = r.u64_();
      }
      return PduHeader{h};
    }
    case PduType::kShmDemote: {
      ShmDemote h;
      h.reason = r.str_();
      return PduHeader{h};
    }
    case PduType::kAnaLog: {
      AnaLog h;
      h.state = static_cast<AnaState>(r.u8_());
      h.change_seq = r.u64_();
      h.reason = r.str_();
      return PduHeader{h};
    }
    case PduType::kAnomalyReq: {
      AnomalyReq h;
      h.trace_id = r.u64_();
      h.t_from_ns = static_cast<i64>(r.u64_());
      h.t_to_ns = static_cast<i64>(r.u64_());
      h.offset_ns = static_cast<i64>(r.u64_());
      return PduHeader{h};
    }
    case PduType::kAnomalyResp: {
      AnomalyResp h;
      h.trace_id = r.u64_();
      h.pid = r.u64_();
      h.event_count = r.u32_();
      return PduHeader{h};
    }
  }
  return make_error(StatusCode::kProtocolError, "unknown PDU type");
}

}  // namespace

PduType Pdu::type() const {
  return std::visit(
      [this](const auto& h) -> PduType {
        using T = std::decay_t<decltype(h)>;
        if constexpr (std::is_same_v<T, ICReq>) return PduType::kICReq;
        if constexpr (std::is_same_v<T, ICResp>) return PduType::kICResp;
        if constexpr (std::is_same_v<T, CapsuleCmd>) return PduType::kCapsuleCmd;
        if constexpr (std::is_same_v<T, CapsuleResp>) return PduType::kCapsuleResp;
        if constexpr (std::is_same_v<T, R2T>) return PduType::kR2T;
        if constexpr (std::is_same_v<T, H2CData>) return PduType::kH2CData;
        if constexpr (std::is_same_v<T, C2HData>) return PduType::kC2HData;
        if constexpr (std::is_same_v<T, TermReq>) {
          return h.from_host ? PduType::kH2CTermReq : PduType::kC2HTermReq;
        }
        if constexpr (std::is_same_v<T, KeepAlive>) return PduType::kKeepAlive;
        if constexpr (std::is_same_v<T, ShmDemote>) return PduType::kShmDemote;
        if constexpr (std::is_same_v<T, AnaLog>) return PduType::kAnaLog;
        if constexpr (std::is_same_v<T, AnomalyReq>) {
          return PduType::kAnomalyReq;
        }
        if constexpr (std::is_same_v<T, AnomalyResp>) {
          return PduType::kAnomalyResp;
        }
      },
      header);
}

const char* to_string(PduType t) {
  switch (t) {
    case PduType::kICReq:
      return "ICReq";
    case PduType::kICResp:
      return "ICResp";
    case PduType::kH2CTermReq:
      return "H2CTermReq";
    case PduType::kC2HTermReq:
      return "C2HTermReq";
    case PduType::kCapsuleCmd:
      return "CapsuleCmd";
    case PduType::kCapsuleResp:
      return "CapsuleResp";
    case PduType::kH2CData:
      return "H2CData";
    case PduType::kC2HData:
      return "C2HData";
    case PduType::kR2T:
      return "R2T";
    case PduType::kKeepAlive:
      return "KeepAlive";
    case PduType::kShmDemote:
      return "ShmDemote";
    case PduType::kAnaLog:
      return "AnaLog";
    case PduType::kAnomalyReq:
      return "AnomalyReq";
    case PduType::kAnomalyResp:
      return "AnomalyResp";
  }
  return "?";
}

const char* to_string(AnaState s) {
  switch (s) {
    case AnaState::kOptimized:
      return "optimized";
    case AnaState::kNonOptimized:
      return "non-optimized";
    case AnaState::kInaccessible:
      return "inaccessible";
  }
  return "?";
}

std::vector<u8> encode(const Pdu& pdu, const CodecOptions& opts) {
  std::vector<u8> out;
  out.reserve(kCommonHeaderBytes + 64 + pdu.payload.size());
  encode_header(pdu, opts, out);
  out.insert(out.end(), pdu.payload.begin(), pdu.payload.end());
  return out;
}

void encode_header(const Pdu& pdu, const CodecOptions& opts,
                   std::vector<u8>& out) {
  out.clear();
  Writer w(out);
  w.u8_(static_cast<u8>(pdu.type()));
  w.u8_(opts.header_digest ? kFlagHeaderDigest : 0);
  w.u16_(0);  // hlen placeholder
  w.u32_(0);  // plen placeholder
  encode_header(w, pdu.header);

  const u64 hlen = out.size();
  if (hlen > UINT16_MAX) {
    // Typed headers are tiny; this would be a programming error.
    out.clear();
    return;
  }
  out[2] = static_cast<u8>(hlen);
  out[3] = static_cast<u8>(hlen >> 8);

  // plen must be final before the digest is computed — the digest covers
  // the common header including the length field.
  const u64 plen =
      hlen + (opts.header_digest ? 4 : 0) + pdu.payload.size();
  for (int i = 0; i < 4; ++i) out[4 + i] = static_cast<u8>(plen >> (8 * i));

  if (opts.header_digest) {
    const u32 digest = crc32c(std::span<const u8>(out.data(), out.size()));
    w.u32_(digest);
  }
}

Result<u64> frame_length(std::span<const u8> prefix) {
  if (prefix.size() < kCommonHeaderBytes) {
    return make_error(StatusCode::kOutOfRange, "short PDU prefix");
  }
  u64 plen = 0;
  for (int i = 0; i < 4; ++i) plen |= static_cast<u64>(prefix[4 + i]) << (8 * i);
  if (plen < kCommonHeaderBytes || plen > kMaxPduBytes) {
    return make_error(StatusCode::kProtocolError, "bad PDU length");
  }
  return plen;
}

namespace {

/// Decodes everything but the payload of the frame starting at `bytes`,
/// whose length field must equal `plen`. `bytes` may stop anywhere after
/// the header digest. Sets `payload_start`.
Result<Pdu> decode_prefix(std::span<const u8> bytes, u64 plen,
                          const CodecOptions& opts, u64& payload_start) {
  if (bytes.size() < kCommonHeaderBytes) {
    return make_error(StatusCode::kProtocolError, "PDU shorter than header");
  }
  const auto type_raw = bytes[0];
  const u8 flags = bytes[1];
  const u16 hlen = static_cast<u16>(bytes[2] | (bytes[3] << 8));
  auto plen_res = frame_length(bytes);
  if (!plen_res) return plen_res.status();
  if (plen_res.value() != plen) {
    return make_error(StatusCode::kProtocolError, "PDU length mismatch");
  }
  if (hlen < kCommonHeaderBytes || hlen > plen) {
    return make_error(StatusCode::kProtocolError, "bad header length");
  }

  const bool has_digest = (flags & kFlagHeaderDigest) != 0;
  if (opts.header_digest != has_digest) {
    return make_error(StatusCode::kProtocolError, "digest flag mismatch");
  }
  payload_start = static_cast<u64>(hlen) + (has_digest ? 4 : 0);
  if (payload_start > plen) {
    return make_error(StatusCode::kProtocolError, "truncated digest");
  }
  if (payload_start > bytes.size()) {
    return make_error(StatusCode::kOutOfRange, "PDU header not complete");
  }
  if (has_digest) {
    u32 stored = 0;
    for (int i = 0; i < 4; ++i) {
      stored |= static_cast<u32>(bytes[hlen + static_cast<u64>(i)]) << (8 * i);
    }
    const u32 computed = crc32c(bytes.subspan(0, hlen));
    if (stored != computed) {
      return make_error(StatusCode::kDataLoss, "header digest mismatch");
    }
  }

  Reader r(bytes.subspan(kCommonHeaderBytes, hlen - kCommonHeaderBytes));
  auto header = decode_header(static_cast<PduType>(type_raw), r);
  if (!header) return header.status();
  if (!r.ok()) {
    return make_error(StatusCode::kProtocolError, "truncated typed header");
  }

  Pdu pdu;
  pdu.header = std::move(header).take();
  return pdu;
}

}  // namespace

Result<Pdu> decode(std::span<const u8> bytes, const CodecOptions& opts) {
  u64 payload_start = 0;
  auto pdu = decode_prefix(bytes, bytes.size(), opts, payload_start);
  if (!pdu) return pdu;
  pdu.value().payload.assign(
      bytes.begin() + static_cast<std::ptrdiff_t>(payload_start), bytes.end());
  return pdu;
}

Result<Pdu> decode_head(std::span<const u8> head, u64 frame_len,
                        const CodecOptions& opts) {
  u64 payload_start = 0;
  auto pdu = decode_prefix(head, frame_len, opts, payload_start);
  if (!pdu) return pdu;
  pdu.value().payload.resize(frame_len - payload_start);
  return pdu;
}

u64 wire_size(const Pdu& pdu) {
  // Cheap exact computation: encode header-only. Headers are tiny (< 100 B)
  // so this is fine off the data path; the timing plane caches sizes.
  Pdu header_only;
  header_only.header = pdu.header;
  return encode(header_only).size() + pdu.payload.size();
}

}  // namespace oaf::pdu
