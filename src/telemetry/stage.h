// The stage vocabulary: one enum names where an I/O's nanoseconds go (the
// attribution plane, DESIGN.md §13) and what the CPU is doing right now (the
// profiling plane's cost centers, §15).
//
// The first kStageCount values are the per-I/O lifecycle stages a
// StageLedger buckets; initiator and target use overlapping subsets so one
// heatmap renders both sides. The remaining values are cost centers with no
// per-I/O time of their own (submission path, reactor bookkeeping, idle
// waits, control plane), so a StageLedger never enters them.
#pragma once

#include <cstddef>

#include "common/types.h"

namespace oaf::telemetry {

enum class Stage : u8 {
  kQueue = 0,    ///< submitted but not yet encoding (QD/admission wait)
  kEncode = 1,   ///< capsule build + payload staging (shm fill / inline copy)
  kGrant = 2,    ///< capsule sent, waiting for R2T / first response byte
  kXfer = 3,     ///< data transfer on the wire (minus remote residency)
  kDevice = 4,   ///< simulated device service time (reported by target)
  kTarget = 5,   ///< target-side processing outside the device (reported)
  kComplete = 6, ///< response send / completion processing
  kDetour = 7,   ///< off-path time: retries, backoff, redrives, aborts
  // Cost centers only: never a StageLedger bucket.
  kSubmit = 8,   ///< initiator submit fast path (user call -> wire)
  kReactor = 9,  ///< executor loop bookkeeping between tasks
  kIdle = 10,    ///< blocked in cv/poll waits
  kControl = 11, ///< connect/login/admin, reconfiguration
  kOther = 12,   ///< anything not yet scoped (the default)
};

/// Per-I/O stages: Stage values below this bound.
inline constexpr std::size_t kStageCount = 8;
/// Every value, cost-center-only ones included.
inline constexpr std::size_t kCostCenterCount = 13;

inline constexpr const char* kStageNames[kCostCenterCount] = {
    "queue",  "encode",  "grant", "xfer",    "device", "target", "complete",
    "detour", "submit", "reactor", "idle", "control", "other"};

[[nodiscard]] inline const char* to_string(Stage s) {
  const auto i = static_cast<std::size_t>(s);
  return i < kCostCenterCount ? kStageNames[i] : "other";
}

}  // namespace oaf::telemetry
