// Binary PDU codec.
//
// Wire layout (little-endian):
//   common header: [type:1][flags:1][hlen:2][plen:4]
//   typed fields (hlen - 8 bytes), in the order of codec.cpp's one field
//   list per header, which encoding, decoding and wire_size() all walk
//   optional header digest (CRC32C over common header + typed fields)
//   payload (plen - header - digest bytes)
//
// Decoding is fully bounds-checked and never trusts length fields beyond the
// buffer; malformed input yields a Status, not UB — this is the surface a
// remote peer controls.
#pragma once

#include <span>
#include <vector>

#include "common/status.h"
#include "pdu/pdu.h"

namespace oaf::pdu {

struct CodecOptions {
  bool header_digest = false;
};

/// Encode `pdu` to a fresh byte vector.
std::vector<u8> encode(const Pdu& pdu, const CodecOptions& opts = {});

/// Encode everything before the payload (common header, typed fields,
/// header digest) into `out`, replacing its contents. The length field
/// counts `pdu.payload`, so `out` followed by the payload is exactly
/// encode(pdu): a stream channel sends the two without joining them.
void encode_header(const Pdu& pdu, const CodecOptions& opts,
                   std::vector<u8>& out);

/// Decode a single complete PDU from `bytes`. `bytes` must contain exactly
/// one encoded PDU (framing is the channel's job).
Result<Pdu> decode(std::span<const u8> bytes, const CodecOptions& opts = {});

/// Decode a PDU whose payload has not been read yet. `head` starts at the
/// frame; `frame_len` is its frame_length(). The payload comes back sized
/// (zeroed) for the caller to read the rest of the frame into; bytes of
/// `head` past the header are ignored. Validates exactly as decode() does,
/// and fails with kOutOfRange while `head` does not yet hold the whole
/// header (typed fields and digest).
Result<Pdu> decode_head(std::span<const u8> head, u64 frame_len,
                        const CodecOptions& opts = {});

/// Number of bytes the full PDU occupies given at least the 8-byte common
/// header; used by stream channels to frame. Returns error if the prefix is
/// too short or the length field is insane.
Result<u64> frame_length(std::span<const u8> prefix);

/// Upper bound accepted for a single PDU (header + payload).
inline constexpr u64 kMaxPduBytes = 64 * 1024 * 1024;

}  // namespace oaf::pdu
