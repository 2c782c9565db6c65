// The per-command recovery policy and the recovery counters.
//
// The paper's adaptive fabric assumes a healthy channel; production NVMe-oF
// does not get that luxury. RecoveryPolicy bounds how hard an initiator
// fights for a command and its association (retry budget, abort ladder,
// reconnect attempts with jittered backoff, keep-alive cadence), and
// ResilienceCounters makes every recovery action observable so benches and
// tests can assert "recovered" rather than "didn't crash".
#pragma once

#include "common/types.h"

namespace oaf::nvmf {

/// The one per-command recovery policy (DESIGN.md §8.1). The path carrying
/// a command is the only place that retries it; a PathGroup only moves
/// commands off paths that died. The defaults keep the legacy behaviour: a
/// transport fault tears the association down and fails everything
/// outstanding, and a deadline expiry goes straight to recovery.
struct RecoveryPolicy {
  /// Constants: the first backoff (doubling per attempt up to the ceiling),
  /// its jitter fraction (one fixed-seed stream per initiator, so recovery
  /// replays bit-identically), the unanswered keep-alives that declare the
  /// peer dead, and the consecutive abort timeouts that demote shm (aborts
  /// ride the control channel, so the fast path is the prime suspect).
  static constexpr DurNs kInitialBackoffNs = 1'000'000;
  static constexpr DurNs kMaxBackoffNs = 1'000'000'000;
  static constexpr double kJitterFrac = 0.1;
  static constexpr u32 kKeepaliveMissLimit = 3;
  static constexpr u32 kDemoteAfterFailedAborts = 2;

  /// Reconnect attempts per outage; 0 disables reconnection.
  u32 max_attempts = 0;
  /// Retries per command, whatever their cause: reconnect replays and
  /// in-place retries after a transient fault or a kQueueFull. Past it the
  /// command gets its last answer (a harvested one, kDataTransferError).
  u32 max_command_retries = 3;
  /// How long a reconnect handshake may wait for ICResp before the attempt
  /// is counted as failed and the next backoff starts.
  DurNs handshake_timeout_ns = 50'000'000;
  /// Keep-alive ping cadence; 0 disables pings (and therefore host-side
  /// dead-peer detection). Timing-plane tests must drive the clock with
  /// run_until() when this is non-zero — the tick re-arms itself.
  DurNs keepalive_interval_ns = 0;
  /// KATO advertised to the target in ICReq; 0 = use the target default.
  u64 kato_ns = 0;
  /// Aborts per stuck command before a deadline expiry hands off to
  /// recover(); 0 disables the abort ladder (expiry -> recover()).
  u32 abort_budget = 0;

  [[nodiscard]] bool reconnect_enabled() const { return max_attempts > 0; }
  [[nodiscard]] bool aborts_enabled() const { return abort_budget > 0; }
};

/// Recovery activity, exported by initiator and target stats and printed by
/// tools/oaf_perf.
struct ResilienceCounters {
  u64 reconnects = 0;          ///< successful re-handshakes
  u64 reconnect_failures = 0;  ///< attempts that never saw ICResp
  u64 commands_retried = 0;    ///< harvested for replay, or retried in place
  u64 keepalive_sent = 0;
  u64 keepalive_misses = 0;    ///< ticks with the previous ping unanswered
  u64 shm_demotions = 0;       ///< runtime shm -> TCP data-path demotions
  u64 digest_errors = 0;       ///< CRC32C payload mismatches detected
  // Command-lifetime escalation ladder (per-I/O deadlines + NVMe Abort).
  u64 deadlines_expired = 0;   ///< per-command deadline wheel expiries
  u64 aborts_sent = 0;         ///< Abort commands issued
  u64 aborts_succeeded = 0;    ///< Abort responses received in time
  u64 aborts_failed = 0;       ///< Aborts that themselves timed out
  u64 commands_aborted = 0;    ///< victim commands completed as aborted
  u64 peer_misbehavior = 0;    ///< shm protocol violations (fencing hits)
  u64 ana_changes = 0;         ///< ANA state transitions applied (multipath)
  // Overload backpressure (DESIGN.md §12).
  u64 queue_full_received = 0;  ///< kQueueFull completions seen from the target
  u64 queue_full_retries = 0;   ///< of those, replayed after a local backoff
  u64 admission_rejects = 0;    ///< handshakes answered admitted=false
};

}  // namespace oaf::nvmf
