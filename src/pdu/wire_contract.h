// Compile-time wire-format contracts for the PDU layer.
//
// Two kinds of guarantee, both enforced at compile time so an innocent
// refactor (reordering fields, widening a counter, adding a virtual) can
// never silently change what peers exchange:
//
//  1. In-memory ABI of the structs that cross address spaces raw — NvmeCmd
//     and NvmeCpl are embedded by value in capsules, parked in shared-memory
//     slots, and copied with memcpy-equivalent moves. They must stay
//     trivially copyable, standard-layout, and bit-for-bit stable
//     (exact sizeof + offsetof).
//
//  2. Serialized width of every fixed-size field the codec writes. The
//     codec is explicitly little-endian field-by-field (never a struct
//     memcpy), so its contract is the per-field byte widths. The constants
//     below are counted by hand, an independent reference that codec.cpp
//     static_asserts each header's field list against. Variable-length
//     fields (strings, payloads) carry their own u32 length prefix and are
//     excluded from the fixed byte counts.
//
// If a static_assert in this header fires, you are changing the wire or
// shared-memory protocol: bump pdu::kVersion / shm ring kVersion and update
// BOTH peers rather than "fixing" the assert.
#pragma once

#include <cstddef>
#include <type_traits>

#include "pdu/nvme_cmd.h"
#include "pdu/pdu.h"

namespace oaf::pdu {

// ---------------------------------------------------------------------------
// Enum carriers: each enum is serialized by casting to its fixed underlying
// type; the cast width is part of the protocol.
static_assert(sizeof(NvmeOpcode) == 1, "NvmeOpcode travels as u8");
static_assert(sizeof(NvmeStatus) == 2, "NvmeStatus travels as u16");
static_assert(sizeof(PduType) == 1, "PduType travels as u8");
static_assert(sizeof(DataPlacement) == 1, "DataPlacement travels as u8");
static_assert(sizeof(AnaState) == 1, "AnaState travels as u8");

// ---------------------------------------------------------------------------
// NvmeCmd: submission-queue entry, embedded raw in capsules and shm slots.
static_assert(std::is_trivially_copyable_v<NvmeCmd>,
              "NvmeCmd is memcpy'd across address spaces");
static_assert(std::is_standard_layout_v<NvmeCmd>,
              "NvmeCmd layout must be deterministic");
static_assert(sizeof(NvmeCmd) == 24, "NvmeCmd in-memory ABI changed");
static_assert(offsetof(NvmeCmd, opcode) == 0);
static_assert(offsetof(NvmeCmd, cid) == 2);
static_assert(offsetof(NvmeCmd, nsid) == 4);
static_assert(offsetof(NvmeCmd, slba) == 8);
static_assert(offsetof(NvmeCmd, nlb) == 16);
static_assert(offsetof(NvmeCmd, abort_cid) == 20);
static_assert(offsetof(NvmeCmd, abort_gen) == 22);

// NvmeCpl: completion-queue entry, same transport treatment.
static_assert(std::is_trivially_copyable_v<NvmeCpl>,
              "NvmeCpl is memcpy'd across address spaces");
static_assert(std::is_standard_layout_v<NvmeCpl>,
              "NvmeCpl layout must be deterministic");
static_assert(sizeof(NvmeCpl) == 16, "NvmeCpl in-memory ABI changed");
static_assert(offsetof(NvmeCpl, cid) == 0);
static_assert(offsetof(NvmeCpl, status) == 2);
static_assert(offsetof(NvmeCpl, result) == 8);

// ---------------------------------------------------------------------------
// Serialized field widths (bytes on the wire, little-endian), grouped per
// PDU in the order of codec.cpp's field lists; codec.cpp static_asserts
// that each list's fixed bytes equal these.
inline constexpr u64 kWireCmdBytes = 1 + 2 + 4 + 8 + 4 + 2 + 2;  // NvmeCmd
inline constexpr u64 kWireCplBytes = 2 + 2 + 8;                  // NvmeCpl
static_assert(kWireCmdBytes == sizeof(NvmeOpcode) + sizeof(NvmeCmd::cid) +
                                   sizeof(NvmeCmd::nsid) +
                                   sizeof(NvmeCmd::slba) +
                                   sizeof(NvmeCmd::nlb) +
                                   sizeof(NvmeCmd::abort_cid) +
                                   sizeof(NvmeCmd::abort_gen),
              "codec field widths diverged from NvmeCmd members");
static_assert(kWireCplBytes == sizeof(NvmeCpl::cid) + sizeof(NvmeStatus) +
                                   sizeof(NvmeCpl::result),
              "codec field widths diverged from NvmeCpl members");

/// Common framing preamble: type u8, flags u8, hlen u16, plen u32.
inline constexpr u64 kWireCommonHeaderBytes = 1 + 1 + 2 + 4;
/// Every variable-length string is prefixed with a u32 byte count.
inline constexpr u64 kWireStrPrefixBytes = 4;

/// Fixed (non-string, non-payload) bytes of each PDU header as serialized.
///
/// Revision history (decoders accept any prefix ending on a revision
/// boundary; encoders always write the newest revision):
///   rev 1 — resilience layer (gen tags, digests, KATO).
///   rev 2 — observability: trace-context feature bit + NTP-style clock
///           echo fields appended to ICReq/ICResp/CapsuleCmd/KeepAlive.
inline constexpr u64 kWireICReqBytesV1 = 2 + 1 + 1 + 4 + 8 + 1 + 1 + 8;
inline constexpr u64 kWireICReqBytes = kWireICReqBytesV1 + 1 + 8;
inline constexpr u64 kWireICRespBytesV1 = 2 + 1 + 4 + 1 + 8 + 4 + 1;
inline constexpr u64 kWireICRespBytesV2 = kWireICRespBytesV1 + 1 + 8 + 8;
///   rev 4 — overload: admission verdict (admitted flag + retry-after hint)
///           appended to ICResp; the reject reason string rides behind it
///           with its own length prefix.
inline constexpr u64 kWireICRespBytes = kWireICRespBytesV2 + 1 + 4;
inline constexpr u64 kWireCapsuleCmdBytesV1 =
    kWireCmdBytes + 1 + 1 + 4 + 8 + 2;
inline constexpr u64 kWireCapsuleCmdBytes = kWireCapsuleCmdBytesV1 + 8 + 8;
inline constexpr u64 kWireCapsuleRespBytes = kWireCplBytes + 8 + 8 + 2;
inline constexpr u64 kWireR2TBytes = 2 + 2 + 8 + 8 + 2;
inline constexpr u64 kWireH2CDataBytes = 2 + 2 + 8 + 8 + 1 + 1 + 4 + 2 + 4;
inline constexpr u64 kWireC2HDataBytes =
    2 + 8 + 8 + 1 + 1 + 1 + 4 + 8 + 8 + 2 + 4;
inline constexpr u64 kWireTermReqFixedBytes = 1 + 2;
/// ShmDemote is its reason string alone — no fixed fields beyond the
/// common header and the string's length prefix.
inline constexpr u64 kWireShmDemoteFixedBytes = 0;
inline constexpr u64 kWireKeepAliveBytesV1 = 1 + 8;
inline constexpr u64 kWireKeepAliveBytes = kWireKeepAliveBytesV1 + 8 + 8;
///   rev 3 — multipath: AnaLog PDU (new type, so no rev-gating needed — an
///           old peer never sends one and ignores ours as "unexpected").
inline constexpr u64 kWireAnaLogFixedBytes = 1 + 8;
///   rev 5 — observability: anomaly-capture fetch PDUs (new types, no
///           rev-gating needed for the same reason as AnaLog). AnomalyResp
///           carries the clock-corrected event array as its payload.
inline constexpr u64 kWireAnomalyReqBytes = 8 + 8 + 8 + 8;
inline constexpr u64 kWireAnomalyRespBytes = 8 + 8 + 4;

}  // namespace oaf::pdu
