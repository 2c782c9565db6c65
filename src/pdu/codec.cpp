#include "pdu/codec.h"

#include <concepts>
#include <iterator>
#include <tuple>
#include <type_traits>

#include "pdu/crc32.h"
#include "pdu/wire_contract.h"

namespace oaf::pdu {

namespace {

constexpr u64 kCommonHeaderBytes = kWireCommonHeaderBytes;
constexpr u8 kFlagHeaderDigest = 0x01;

// ---------------------------------------------------------------------------
// The wire description: each typed header's fields, listed once in wire
// order. `fields(h)` returns groups of references: the first group is always
// on the wire, and each later group is a tail a protocol revision appended.
// Scalars travel little-endian at their own width (an enum as its underlying
// type, a bool as one byte, a signed value in two's complement), a string as
// a u32 byte count and its bytes, and NvmeCmd/NvmeCpl nest their own lists.
// The writer, the reader and the sizer below all walk these lists.

/// `H` or `const H`: each list serves the writer and the reader alike.
template <typename T, typename H>
concept Like = std::same_as<std::remove_const_t<T>, H>;

/// The type tag each header travels under; a header without one does not
/// compile. A TermReq travels under two (type_of).
template <typename H>
constexpr PduType kTag = H::missing_type_tag;

constexpr auto fields(Like<NvmeCmd> auto& c) {
  return std::make_tuple(std::tie(c.opcode, c.cid, c.nsid, c.slba, c.nlb,
                                  c.abort_cid, c.abort_gen));
}

constexpr auto fields(Like<NvmeCpl> auto& c) {
  return std::make_tuple(std::tie(c.cid, c.status, c.result));
}

template <>
constexpr PduType kTag<ICReq> = PduType::kICReq;
constexpr auto fields(Like<ICReq> auto& h) {
  return std::make_tuple(
      std::tie(h.pfv, h.hpda, h.header_digest, h.maxr2t, h.node_token,
               h.want_shm, h.data_digest, h.kato_ns),
      std::tie(h.trace_ctx, h.t_sent_ns));  // rev 2: trace-context offer
}

template <>
constexpr PduType kTag<ICResp> = PduType::kICResp;
constexpr auto fields(Like<ICResp> auto& h) {
  return std::make_tuple(
      std::tie(h.pfv, h.header_digest, h.maxh2cdata, h.shm_granted,
               h.shm_bytes, h.shm_slots, h.shm_name, h.data_digest),
      std::tie(h.trace_ctx, h.echo_t_ns, h.t_now_ns),  // rev 2: clock echo
      // rev 4: admission verdict; a short header decodes as admitted
      std::tie(h.admitted, h.retry_after_ms, h.reject_reason));
}

template <>
constexpr PduType kTag<CapsuleCmd> = PduType::kCapsuleCmd;
constexpr auto fields(Like<CapsuleCmd> auto& h) {
  return std::make_tuple(std::tie(h.cmd, h.placement, h.in_capsule_data,
                                  h.shm_slot, h.data_len, h.gen),
                         std::tie(h.trace_id, h.parent_span));  // rev 2
}

template <>
constexpr PduType kTag<CapsuleResp> = PduType::kCapsuleResp;
constexpr auto fields(Like<CapsuleResp> auto& h) {
  return std::make_tuple(
      std::tie(h.cpl, h.io_time_ns, h.target_time_ns, h.gen));
}

template <>
constexpr PduType kTag<R2T> = PduType::kR2T;
constexpr auto fields(Like<R2T> auto& h) {
  return std::make_tuple(std::tie(h.cid, h.ttag, h.offset, h.length, h.gen));
}

template <>
constexpr PduType kTag<H2CData> = PduType::kH2CData;
constexpr auto fields(Like<H2CData> auto& h) {
  return std::make_tuple(std::tie(h.cid, h.ttag, h.offset, h.length, h.last,
                                  h.placement, h.shm_slot, h.gen,
                                  h.data_digest));
}

template <>
constexpr PduType kTag<C2HData> = PduType::kC2HData;
constexpr auto fields(Like<C2HData> auto& h) {
  return std::make_tuple(std::tie(h.cid, h.offset, h.length, h.last,
                                  h.success, h.placement, h.shm_slot,
                                  h.io_time_ns, h.target_time_ns, h.gen,
                                  h.data_digest));
}

template <>
constexpr PduType kTag<TermReq> = PduType::kH2CTermReq;
constexpr auto fields(Like<TermReq> auto& h) {
  return std::make_tuple(std::tie(h.from_host, h.fes, h.reason));
}

template <>
constexpr PduType kTag<KeepAlive> = PduType::kKeepAlive;
constexpr auto fields(Like<KeepAlive> auto& h) {
  return std::make_tuple(std::tie(h.from_host, h.seq),
                         std::tie(h.t_sent_ns, h.echo_t_ns));  // rev 2
}

template <>
constexpr PduType kTag<ShmDemote> = PduType::kShmDemote;
constexpr auto fields(Like<ShmDemote> auto& h) {
  return std::make_tuple(std::tie(h.reason));
}

template <>
constexpr PduType kTag<AnaLog> = PduType::kAnaLog;
constexpr auto fields(Like<AnaLog> auto& h) {
  return std::make_tuple(std::tie(h.state, h.change_seq, h.reason));
}

template <>
constexpr PduType kTag<AnomalyReq> = PduType::kAnomalyReq;
constexpr auto fields(Like<AnomalyReq> auto& h) {
  return std::make_tuple(
      std::tie(h.trace_id, h.t_from_ns, h.t_to_ns, h.offset_ns));
}

template <>
constexpr PduType kTag<AnomalyResp> = PduType::kAnomalyResp;
constexpr auto fields(Like<AnomalyResp> auto& h) {
  return std::make_tuple(std::tie(h.trace_id, h.pid, h.event_count));
}

/// A TermReq's direction is its `from_host` field.
template <typename H>
constexpr PduType type_of(const H& h) {
  if constexpr (std::is_same_v<H, TermReq>) {
    return h.from_host ? PduType::kH2CTermReq : PduType::kC2HTermReq;
  } else {
    return kTag<H>;
  }
}

/// True when a frame tagged `t` carries an `H`.
template <typename H>
constexpr bool carries(PduType t) {
  return t == kTag<H> ||
         (std::is_same_v<H, TermReq> && t == PduType::kC2HTermReq);
}

/// The unsigned integer a scalar field travels as.
template <typename T>
constexpr auto raw(T v) {
  if constexpr (std::is_same_v<T, bool>) {
    return static_cast<u8>(v ? 1 : 0);
  } else if constexpr (std::is_enum_v<T>) {
    return static_cast<std::make_unsigned_t<std::underlying_type_t<T>>>(v);
  } else {
    return static_cast<std::make_unsigned_t<T>>(v);
  }
}

template <typename W, typename... T>
constexpr void walk_group(W& w, const std::tuple<T&...>& group) {
  std::apply([&w](T&... field) { (w.field(field), ...); }, group);
}

/// Walks `w` over the fields of `h` in wire order. A revision tail is walked
/// only when `w.wants(tail)`.
template <typename W, typename H>
constexpr void walk(W& w, H& h) {
  std::apply(
      [&w](const auto& head, const auto&... tails) {
        walk_group(w, head);
        ((w.wants(tails) ? walk_group(w, tails) : void()), ...);
      },
      fields(h));
}

/// Counts the bytes fields occupy on the wire.
struct Sizer {
  u64 bytes = 0;

  static constexpr bool wants(const auto& /*tail*/) { return true; }

  template <typename T>
  constexpr void field(const T& v) {
    if constexpr (std::is_same_v<T, std::string>) {
      bytes += kWireStrPrefixBytes + v.size();
    } else if constexpr (std::is_class_v<T>) {
      walk(*this, v);
    } else {
      bytes += sizeof(raw(v));
    }
  }
};

template <typename H>
constexpr u64 wire_bytes(const H& h) {
  Sizer s;
  walk(s, h);
  return s.bytes;
}

class Writer {
 public:
  explicit Writer(std::vector<u8>& out) : out_(out) {}

  /// An encoder always writes the newest revision: every tail.
  static constexpr bool wants(const auto& /*tail*/) { return true; }

  template <typename T>
  void field(const T& v) {
    if constexpr (std::is_same_v<T, std::string>) {
      field(static_cast<u32>(v.size()));
      out_.insert(out_.end(), v.begin(), v.end());
    } else if constexpr (std::is_class_v<T>) {
      walk(*this, v);
    } else {
      const auto u = raw(v);
      for (size_t i = 0; i < sizeof(u); ++i) {
        out_.push_back(static_cast<u8>(u >> (8 * i)));
      }
    }
  }

 private:
  std::vector<u8>& out_;
};

/// Bounds-checked: a field past the end of the typed header fails the whole
/// decode. Bytes past the last known field (a newer peer's tails) are
/// ignored.
class Reader {
 public:
  explicit Reader(std::span<const u8> in) : in_(in) {}

  [[nodiscard]] bool ok() const { return ok_; }

  /// A tail is read only when the peer sent all of its fixed bytes, sized
  /// on its still-default fields (a string counts its length prefix). A
  /// short (older-peer) header so decodes with the tail's defaults.
  [[nodiscard]] bool wants(const auto& tail) const {
    Sizer s;
    walk_group(s, tail);
    return ok_ && in_.size() - pos_ >= s.bytes;
  }

  template <typename T>
  void field(T& v) {
    if constexpr (std::is_same_v<T, std::string>) {
      u32 len = 0;
      field(len);
      if (!need(len)) return;
      v.assign(reinterpret_cast<const char*>(in_.data() + pos_), len);
      pos_ += len;
    } else if constexpr (std::is_class_v<T>) {
      walk(*this, v);
    } else {
      using U = decltype(raw(v));
      if (!need(sizeof(U))) return;
      u64 acc = 0;
      for (size_t i = 0; i < sizeof(U); ++i) {
        acc |= u64{in_[pos_ + i]} << (8 * i);
      }
      pos_ += sizeof(U);
      v = static_cast<T>(static_cast<U>(acc));
    }
  }

 private:
  bool need(u64 n) {
    if (!ok_ || n > in_.size() - pos_) ok_ = false;
    return ok_;
  }

  std::span<const u8> in_;
  u64 pos_ = 0;
  bool ok_ = true;
};

/// Decodes the typed fields of the header tagged `t` into `out`; false when
/// no header carries that tag.
template <size_t I = 0>
bool read_typed(PduType t, Reader& r, PduHeader& out) {
  if constexpr (I == std::variant_size_v<PduHeader>) {
    return false;
  } else {
    if (!carries<std::variant_alternative_t<I, PduHeader>>(t)) {
      return read_typed<I + 1>(t, r, out);
    }
    walk(r, out.emplace<I>());
    return true;
  }
}

// The field lists against the hand-counted widths in wire_contract.h.
static_assert(wire_bytes(NvmeCmd{}) == kWireCmdBytes);
static_assert(wire_bytes(NvmeCpl{}) == kWireCplBytes);
static_assert(wire_bytes(ICReq{}) == kWireICReqBytes);
static_assert(wire_bytes(ICResp{}) ==
              kWireICRespBytes + 2 * kWireStrPrefixBytes);
static_assert(wire_bytes(CapsuleCmd{}) == kWireCapsuleCmdBytes);
static_assert(wire_bytes(CapsuleResp{}) == kWireCapsuleRespBytes);
static_assert(wire_bytes(R2T{}) == kWireR2TBytes);
static_assert(wire_bytes(H2CData{}) == kWireH2CDataBytes);
static_assert(wire_bytes(C2HData{}) == kWireC2HDataBytes);
static_assert(wire_bytes(TermReq{}) ==
              kWireTermReqFixedBytes + kWireStrPrefixBytes);
static_assert(wire_bytes(KeepAlive{}) == kWireKeepAliveBytes);
static_assert(wire_bytes(ShmDemote{}) ==
              kWireShmDemoteFixedBytes + kWireStrPrefixBytes);
static_assert(wire_bytes(AnaLog{}) ==
              kWireAnaLogFixedBytes + kWireStrPrefixBytes);
static_assert(wire_bytes(AnomalyReq{}) == kWireAnomalyReqBytes);
static_assert(wire_bytes(AnomalyResp{}) == kWireAnomalyRespBytes);

}  // namespace

PduType Pdu::type() const {
  return std::visit([](const auto& h) { return type_of(h); }, header);
}

const char* to_string(PduType t) {
  // Indexed by tag; 0x08 is unassigned.
  static constexpr const char* kNames[] = {
      "ICReq",       "ICResp",    "H2CTermReq", "C2HTermReq", "CapsuleCmd",
      "CapsuleResp", "H2CData",   "C2HData",    "?",          "R2T",
      "KeepAlive",   "ShmDemote", "AnaLog",     "AnomalyReq", "AnomalyResp"};
  const auto i = static_cast<u8>(t);
  return i < std::size(kNames) ? kNames[i] : "?";
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
  const u64 hlen = wire_size(pdu) - pdu.payload.size();
  if (hlen > UINT16_MAX) return;  // typed headers are tiny: a program bug
  const u64 digest_bytes = opts.header_digest ? 4 : 0;
  Writer w(out);
  w.field(pdu.type());
  w.field(opts.header_digest ? kFlagHeaderDigest : u8{0});
  w.field(static_cast<u16>(hlen));
  w.field(static_cast<u32>(hlen + digest_bytes + pdu.payload.size()));
  std::visit([&w](const auto& h) { walk(w, h); }, pdu.header);
  // The digest covers the common header, length fields included.
  if (opts.header_digest) w.field(crc32c(out));
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
    Reader(bytes.subspan(hlen, 4)).field(stored);
    if (stored != crc32c(bytes.subspan(0, hlen))) {
      return make_error(StatusCode::kDataLoss, "header digest mismatch");
    }
  }

  Reader r(bytes.subspan(kCommonHeaderBytes, hlen - kCommonHeaderBytes));
  Pdu pdu;
  if (!read_typed(static_cast<PduType>(type_raw), r, pdu.header)) {
    return make_error(StatusCode::kProtocolError, "unknown PDU type");
  }
  if (!r.ok()) {
    return make_error(StatusCode::kProtocolError, "truncated typed header");
  }
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
  return kCommonHeaderBytes +
         std::visit([](const auto& h) { return wire_bytes(h); }, pdu.header) +
         pdu.payload.size();
}

}  // namespace oaf::pdu
