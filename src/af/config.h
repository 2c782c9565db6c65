// Adaptive Fabric configuration.
//
// One AfConfig describes how a connection behaves; the ablation benches
// (paper Fig 8) toggle individual optimizations off to quantify each one.
#pragma once

#include "common/types.h"
#include "common/units.h"

namespace oaf::af {

/// Flow-control policy for write commands (paper §4.4.2).
enum class FlowControlMode {
  /// Stock NVMe/TCP rules: in-capsule data below the threshold, R2T above.
  kConservative,
  /// Shared-memory flow control: in-capsule for every size when the payload
  /// rides in shm (the slot parks the data until the target drains it).
  kShmInCapsule,
};

/// Busy-poll policy for the TCP channel (paper §4.5 / Fig 10).
enum class BusyPollPolicy {
  kInterrupt,  ///< stock: no polling
  kStatic,     ///< fixed budget (static_poll_ns)
  kAdaptive,   ///< AF: budget chosen from the observed read/write mix
};

struct AfConfig {
  // --- shared-memory channel ---
  bool want_shm = true;              ///< request the shm channel when co-located
  FlowControlMode flow_control = FlowControlMode::kShmInCapsule;
  bool zero_copy = true;             ///< app buffers created in shm (§4.4.3)
  u64 shm_slot_bytes = 512 * kKiB;   ///< slot size == max I/O size
  u32 shm_slots = 128;               ///< slot count == queue depth
  /// Paper §6 hardening: encrypt slot payloads with the tenant's key so a
  /// snooper reads ciphertext. Forces the staged path (zero-copy would
  /// expose plaintext buffers) and costs one extra pass per side.
  bool encrypt_shm = false;
  u64 shm_key = 0;                   ///< tenant key (out-of-band provisioned)

  /// Resilience: CRC32C data digest over inline H2CData/C2HData payloads,
  /// negotiated in ICReq/ICResp (both sides must enable it). A mismatch is
  /// a retryable transport error, not a device error.
  bool data_digest = false;

  /// Observability: offer wire-level trace-context propagation in ICReq
  /// (trace id + parent span on every CapsuleCmd, NTP-style clock echoes on
  /// ICResp/KeepAlive). Both sides must support it; an old peer simply
  /// never echoes the feature bit and the connection runs without it.
  bool trace_ctx = true;

  // --- TCP channel ---
  u64 in_capsule_threshold = 8 * kKiB;  ///< stock NVMe/TCP in-capsule limit
  u64 chunk_bytes = 128 * kKiB;         ///< application-level chunk size (§4.5)
  BusyPollPolicy busy_poll = BusyPollPolicy::kAdaptive;
  DurNs static_poll_ns = 50'000;        ///< used when busy_poll == kStatic

  /// Stock SPDK NVMe/TCP: no shm, conservative flow control, 128 KiB
  /// chunks, interrupt-driven receive.
  static AfConfig stock_tcp() {
    AfConfig cfg;
    cfg.want_shm = false;
    cfg.flow_control = FlowControlMode::kConservative;
    cfg.zero_copy = false;
    cfg.chunk_bytes = 128 * kKiB;
    cfg.busy_poll = BusyPollPolicy::kInterrupt;
    return cfg;
  }

  /// Full NVMe-oAF ("SHM-0-copy" in the paper): every optimization on.
  static AfConfig oaf() { return AfConfig{}; }
};

}  // namespace oaf::af
