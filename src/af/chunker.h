// Application-level chunking (paper §4.5).
//
// NVMe/TCP splits each I/O into ceil(io_size / chunk_size) data PDUs; the
// chunk size also dictates the target's staging-buffer size, so small chunks
// cost per-PDU overhead and huge chunks waste pool memory. The Fig 9 bench
// sweeps this knob.
#pragma once

#include <vector>

#include "common/types.h"
#include "common/units.h"
#include "telemetry/telemetry.h"

namespace oaf::af {

struct Chunk {
  u64 offset = 0;
  u64 length = 0;
  bool last = false;
};

namespace detail {
/// Cached process-global chunk counter (chunking happens on both engines'
/// data paths; the registry lookup is done once).
inline telemetry::Counter* chunk_counter() {
  static telemetry::Counter* c = telemetry::metrics().counter(
      "oaf_chunks_total", "Data PDU chunks produced by application chunking");
  return c;
}
}  // namespace detail

/// Split [0, total) into chunks of at most `chunk_bytes`.
inline std::vector<Chunk> make_chunks(u64 total, u64 chunk_bytes) {
  std::vector<Chunk> out;
  if (total == 0) {
    out.push_back({0, 0, true});
    telemetry::bump(detail::chunk_counter());
    return out;
  }
  if (chunk_bytes == 0) chunk_bytes = total;
  out.reserve(ceil_div(total, chunk_bytes));
  for (u64 off = 0; off < total; off += chunk_bytes) {
    const u64 len = std::min(chunk_bytes, total - off);
    out.push_back({off, len, off + len == total});
  }
  telemetry::bump(detail::chunk_counter(), out.size());
  return out;
}

/// Number of chunks an I/O of `total` bytes produces.
inline u64 chunk_count(u64 total, u64 chunk_bytes) {
  if (total == 0) return 1;
  if (chunk_bytes == 0) return 1;
  return ceil_div(total, chunk_bytes);
}

}  // namespace oaf::af
