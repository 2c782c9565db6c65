// Flow-control decisions (paper §4.4.2).
//
// Stock NVMe/TCP: writes <= the in-capsule threshold (8 KiB) travel with the
// command capsule; larger writes use the conservative R2T exchange (3
// messages before the I/O can reach the SSD). With a shared-memory channel
// the payload can park in its slot until the target drains it, so the AF
// switches every write to in-capsule regardless of size — eliminating the
// R2T and the separate H2CData notification (steps 2 and 4 of Fig 7).
#pragma once

#include "af/config.h"

namespace oaf::af {

/// True if a write of `data_len` should carry its data with the command
/// capsule (in-capsule flow); false means the conservative R2T flow.
inline bool write_in_capsule(const AfConfig& cfg, bool shm_channel_ready,
                             u64 data_len) {
  if (shm_channel_ready && cfg.flow_control == FlowControlMode::kShmInCapsule) {
    return true;  // shm-based flow control: always in-capsule
  }
  return data_len <= cfg.in_capsule_threshold;
}

/// True if a read completion is folded into the final C2HData PDU (the
/// SUCCESS-flag optimization, enabled along with shm flow control).
inline bool read_success_flag(const AfConfig& cfg, bool shm_channel_ready) {
  return shm_channel_ready && cfg.flow_control == FlowControlMode::kShmInCapsule;
}

}  // namespace oaf::af
