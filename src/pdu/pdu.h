// NVMe/TCP-style Protocol Data Units with the NVMe-oAF extensions.
//
// Types and flow follow the NVMe-oF 1.1 TCP transport binding: connections
// are initialized with ICReq/ICResp, commands travel as capsules, large
// writes use R2T + H2CData, reads return C2HData, and completions arrive as
// CapsuleResp. The oAF extension (paper §4.1–4.4) adds:
//   * AF capability negotiation piggybacked on ICReq/ICResp (locality token,
//     shared-memory region grant: name/bytes/slots);
//   * data PDUs that may reference a shared-memory slot instead of carrying
//     an inline payload — the out-of-band notification of Figure 6.
// The resilience layer adds three more pieces:
//   * KeepAlive ping/echo PDUs plus a KATO advertised in ICReq, so the
//     target can reap dead associations and the host can detect dead peers;
//   * a per-attempt generation tag (`gen`) carried in CapsuleCmd and echoed
//     in R2T/H2CData/C2HData/CapsuleResp, so a replayed command is never
//     matched against PDUs of an earlier attempt;
//   * an optional CRC32C data digest over inline data payloads, negotiated
//     in ICReq/ICResp — a mismatch is a retryable transport error.
// The observability layer appends one more (fully backward compatible)
// extension: trace-context propagation. ICReq carries a `trace_ctx` feature
// bit plus a send timestamp; ICResp echoes both, adding the target's local
// clock so the host can estimate the clock offset NTP-style; CapsuleCmd then
// carries a 64-bit trace id + parent span id, and KeepAlive echoes carry
// timestamps to keep the offset estimate fresh. All new fields are appended
// at the *end* of the typed headers, as a tail of the header's field list
// in codec.cpp (a struct member not in that list never reaches the wire):
// the codec tolerates both short (old peer) and long (new peer) headers, so
// mixed-version associations work — the feature simply stays off.
#pragma once

#include <string>
#include <variant>
#include <vector>

#include "pdu/nvme_cmd.h"

namespace oaf::pdu {

enum class PduType : u8 {
  kICReq = 0x00,
  kICResp = 0x01,
  kH2CTermReq = 0x02,
  kC2HTermReq = 0x03,
  kCapsuleCmd = 0x04,
  kCapsuleResp = 0x05,
  kH2CData = 0x06,
  kC2HData = 0x07,
  kR2T = 0x09,
  kKeepAlive = 0x0a,   ///< resilience ext.: host ping / controller echo
  kShmDemote = 0x0b,   ///< resilience ext.: runtime shm -> TCP demotion
  kAnaLog = 0x0c,      ///< multipath ext.: ANA path-state change notice
  kAnomalyReq = 0x0d,  ///< observability ext.: fetch peer anomaly events
  kAnomalyResp = 0x0e, ///< observability ext.: anomaly events reply
};

const char* to_string(PduType t);

/// Asymmetric Namespace Access state of one controller (path), modelled on
/// NVMe ANA groups but scoped per-association: the target advertises how
/// this path should be treated relative to its siblings and the initiator's
/// PathGroup weighs it during selection. Advisory — the target keeps
/// serving commands in every state; `kInaccessible` only steers *new*
/// submissions away.
enum class AnaState : u8 {
  kOptimized = 0,      ///< preferred path, full service
  kNonOptimized = 1,   ///< usable, but pick an optimized sibling first
  kInaccessible = 2,   ///< do not submit new commands on this path
};

const char* to_string(AnaState s);

/// Where a data PDU's payload lives.
enum class DataPlacement : u8 {
  kInline = 0,  ///< payload bytes follow the header on the TCP stream
  kShmSlot = 1, ///< payload parked in a shared-memory slot (oAF extension)
};

/// Initialize Connection Request. `node_token` identifies the physical host
/// the client runs on (supplied by the locality helper); `want_shm` asks the
/// target to grant a shared-memory channel if co-located.
struct ICReq {
  u16 pfv = 0;              ///< PDU format version
  u8 hpda = 0;              ///< host PDU data alignment (shift)
  bool header_digest = false;
  u32 maxr2t = 1;           ///< max outstanding R2Ts per command
  u64 node_token = 0;       ///< oAF: opaque host-identity token
  bool want_shm = false;    ///< oAF: request shared-memory channel
  bool data_digest = false; ///< resilience: CRC32C over inline data payloads
  u64 kato_ns = 0;          ///< keep-alive timeout; 0 = use target default
  bool trace_ctx = false;   ///< observability: offer trace-context propagation
  u64 t_sent_ns = 0;        ///< observability: host clock when ICReq was sent
};

/// Initialize Connection Response. When `shm_granted`, the client maps the
/// named region and the double-buffer geometry (bytes/slots) is fixed for
/// the connection lifetime.
struct ICResp {
  u16 pfv = 0;
  bool header_digest = false;
  u32 maxh2cdata = 0;       ///< largest H2CData payload target accepts
  bool shm_granted = false; ///< oAF: shared-memory channel established
  u64 shm_bytes = 0;        ///< oAF: total region size
  u32 shm_slots = 0;        ///< oAF: slots per direction (== queue depth)
  std::string shm_name;     ///< oAF: region name to shm_open/map
  bool data_digest = false; ///< resilience: data digest accepted
  bool trace_ctx = false;   ///< observability: trace-context accepted
  u64 echo_t_ns = 0;        ///< observability: ICReq::t_sent_ns echoed back
  u64 t_now_ns = 0;         ///< observability: target clock when ICResp sent
  /// Overload ext. (rev 4): connect-time admission verdict. Defaults keep
  /// an old peer's short header decoding as "admitted" — rejection is only
  /// ever explicit. When `admitted` is false the target closes the
  /// association right after this ICResp; `retry_after_ms` hints how long
  /// the host should back off before redialing (0 = host's own policy).
  bool admitted = true;
  u32 retry_after_ms = 0;
  std::string reject_reason;
};

/// Command capsule. For writes, data may be in-capsule (inline payload or a
/// shm slot reference under shared-memory flow control) or deferred until an
/// R2T arrives (conservative flow control).
struct CapsuleCmd {
  NvmeCmd cmd;
  DataPlacement placement = DataPlacement::kInline;
  bool in_capsule_data = false;  ///< write payload accompanies the capsule
  u32 shm_slot = 0;              ///< valid when placement == kShmSlot
  u64 data_len = 0;              ///< total data length for this command
  u16 gen = 0;                   ///< attempt generation, echoed by the target
                                 ///< (0 = no replay protection requested)
  u64 trace_id = 0;              ///< observability: trace id (0 = untraced)
  u64 parent_span = 0;           ///< observability: initiator's I/O span id
};

/// Response capsule (completion). The two *_ns fields are oAF reproduction
/// instrumentation: the target reports how long the command spent on the
/// NVMe device and in target-side processing, which the client uses to
/// produce the paper's I/O-time / comm-time / other latency breakdowns
/// (Figs 3 and 12) without clock synchronization games.
struct CapsuleResp {
  NvmeCpl cpl;
  u64 io_time_ns = 0;
  u64 target_time_ns = 0;
  u16 gen = 0;  ///< echo of CapsuleCmd::gen (0 = unknown, matches anything)
};

/// Ready-to-Transfer: target grants the client permission to send `length`
/// bytes starting at `offset` for command `cid` (conservative flow control).
struct R2T {
  u16 cid = 0;
  u16 ttag = 0;   ///< transfer tag to echo in H2CData
  u64 offset = 0;
  u64 length = 0;
  u16 gen = 0;    ///< echo of CapsuleCmd::gen
};

/// True when a peer-supplied [offset, offset + length) fits in `size` bytes,
/// tested without the sum, which a hostile offset can wrap past zero.
constexpr bool range_fits(u64 offset, u64 length, u64 size) {
  return length <= size && offset <= size - length;
}

/// Host-to-Controller data (write payload), inline or a shm slot reference.
struct H2CData {
  u16 cid = 0;
  u16 ttag = 0;
  u64 offset = 0;
  u64 length = 0;
  bool last = true;
  DataPlacement placement = DataPlacement::kInline;
  u32 shm_slot = 0;
  u16 gen = 0;          ///< echo of CapsuleCmd::gen
  u32 data_digest = 0;  ///< CRC32C over the inline payload (when negotiated)
};

/// Controller-to-Host data (read payload), inline or a shm slot reference.
/// `success` mirrors NVMe/TCP's C2HData SUCCESS flag: when set on the last
/// data PDU the host treats the command as completed and no CapsuleResp
/// follows — the shm flow control uses it to cut one control message per
/// read (paper §4.4.2).
struct C2HData {
  u16 cid = 0;
  u64 offset = 0;
  u64 length = 0;
  bool last = true;
  bool success = false;
  DataPlacement placement = DataPlacement::kInline;
  u32 shm_slot = 0;
  u64 io_time_ns = 0;      ///< instrumentation (valid when success is set)
  u64 target_time_ns = 0;  ///< instrumentation (valid when success is set)
  u16 gen = 0;             ///< echo of CapsuleCmd::gen
  u32 data_digest = 0;     ///< CRC32C over the inline payload (when negotiated)
};

/// Terminate request (either direction); `fes` = fatal error status.
struct TermReq {
  bool from_host = true;
  u16 fes = 0;
  std::string reason;
};

/// Keep-alive ping (host -> controller) and echo (controller -> host).
/// The target refreshes its last-heard stamp on *any* PDU; KeepAlive exists
/// so idle associations stay provably alive and a silent peer is reaped
/// once its KATO expires.
struct KeepAlive {
  bool from_host = true;  ///< ping when true, echo when false
  u64 seq = 0;            ///< monotonically increasing per connection
  u64 t_sent_ns = 0;      ///< observability: sender clock at transmit time
  u64 echo_t_ns = 0;      ///< observability: echo of the ping's t_sent_ns
};

/// Runtime shm -> TCP demotion notice (host -> controller). The sender has
/// stopped placing new payloads in shared memory (locality flag dropped or
/// a ring health check failed); in-flight slot transfers still complete,
/// new data rides inline TCP PDUs.
struct ShmDemote {
  std::string reason;
};

/// ANA log-page-style path-state notice (controller -> host), pushed
/// asynchronously whenever the target changes this association's ANA state.
/// `change_seq` increases monotonically per association so a delayed or
/// reordered notice can never roll the host's view backwards; a fresh
/// association restarts at seq 1 with state kOptimized.
struct AnaLog {
  AnaState state = AnaState::kOptimized;
  u64 change_seq = 0;
  std::string reason;
};

/// Anomaly-event fetch (host -> controller). On an SLO breach the host asks
/// the peer for its half of the story: every event in its trace ring
/// matching `trace_id` plus neighbours inside [t_from_ns, t_to_ns] — a
/// window already translated onto the *target's* clock. `offset_ns` is the
/// host's remote-minus-local estimate; the target subtracts it from every
/// event timestamp in the reply so the returned events land directly on the
/// host's timeline (no parsing/rewriting on the hot breach path).
struct AnomalyReq {
  u64 trace_id = 0;
  i64 t_from_ns = 0;   ///< window start, target clock
  i64 t_to_ns = 0;     ///< window end, target clock
  i64 offset_ns = 0;   ///< remote-minus-local clock estimate to undo
};

/// Anomaly-event reply (controller -> host). The payload is a UTF-8 JSON
/// array of event objects (already clock-corrected, capped by the target's
/// anomaly recorder); `event_count` is its length so the host can log
/// truncation without parsing.
struct AnomalyResp {
  u64 trace_id = 0;    ///< echo of AnomalyReq::trace_id
  u64 pid = 0;         ///< target process id, linking the capture's halves
  u32 event_count = 0;
};

using PduHeader =
    std::variant<ICReq, ICResp, CapsuleCmd, CapsuleResp, R2T, H2CData, C2HData,
                 TermReq, KeepAlive, ShmDemote, AnaLog, AnomalyReq,
                 AnomalyResp>;

/// A full PDU: typed header plus (possibly empty) inline payload bytes.
struct Pdu {
  PduHeader header;
  std::vector<u8> payload;

  [[nodiscard]] PduType type() const;

  template <typename T>
  [[nodiscard]] const T* as() const {
    return std::get_if<T>(&header);
  }
  template <typename T>
  [[nodiscard]] T* as() {
    return std::get_if<T>(&header);
  }
};

/// Wire size of an encoded PDU without a header digest (common header +
/// typed fields + payload), used by the timing plane to charge
/// serialization costs; it sizes the field lists and encodes nothing.
u64 wire_size(const Pdu& pdu);

}  // namespace oaf::pdu
