// Connection-resilience policy and counters.
//
// The paper's adaptive fabric assumes a healthy channel; production NVMe-oF
// does not get that luxury. ReconnectPolicy bounds how hard an initiator
// fights to keep an association alive (reconnect attempts, exponential
// backoff with deterministic jitter, per-command replay budget, keep-alive
// cadence), and ResilienceCounters makes every recovery action observable
// so benches and tests can assert "recovered" rather than "didn't crash".
#pragma once

#include "common/types.h"

namespace oaf::nvmf {

/// Governs initiator-side recovery. The default (max_attempts == 0) keeps
/// the legacy behaviour: any transport fault tears the association down and
/// fails everything outstanding.
struct ReconnectPolicy {
  /// Reconnect attempts per outage; 0 disables recovery entirely.
  u32 max_attempts = 0;
  /// Backoff before the first retry; each further retry doubles it, up to
  /// a 1 s ceiling.
  DurNs initial_backoff_ns = 1'000'000;
  /// Jitter as a fraction of the backoff, drawn from a fixed-seed stream
  /// so recovery schedules replay bit-identically.
  double jitter_frac = 0.1;
  /// Replay budget per command across the connection lifetime. A command
  /// that out-lives this many attempts fails with kDataTransferError.
  u32 max_command_retries = 3;
  /// How long a reconnect handshake may wait for ICResp before the attempt
  /// is counted as failed and the next backoff starts.
  DurNs handshake_timeout_ns = 50'000'000;
  /// Keep-alive ping cadence; 0 disables pings (and therefore host-side
  /// dead-peer detection). Timing-plane tests must drive the clock with
  /// run_until() when this is non-zero — the tick re-arms itself.
  DurNs keepalive_interval_ns = 0;
  /// Consecutive unanswered keep-alives before the host declares the peer
  /// dead and starts a reconnect.
  u32 keepalive_miss_limit = 3;
  /// KATO advertised to the target in ICReq; 0 = use the target default.
  u64 kato_ns = 0;

  [[nodiscard]] bool enabled() const { return max_attempts > 0; }
};

/// Command-lifetime escalation ladder: what a per-command deadline expiry
/// does. Disabled by default (abort_budget == 0), which keeps the legacy
/// semantics — a deadline expiry goes straight to connection recovery (or
/// teardown without a ReconnectPolicy). When enabled, the rungs are:
///   deadline expires  -> send an NVMe Abort for the stuck command, itself
///                        bounded by command_timeout_ns
///   abort times out   -> retry, up to abort_budget aborts per command;
///                        after demote_after_failed_aborts consecutive
///                        failures on a shm data path, demote_shm()
///   budget exhausted  -> the control path itself is dead: hand off to the
///                        PR-1 reconnect machine (recover()).
struct EscalationPolicy {
  /// Aborts attempted per stuck command before falling back to recovery;
  /// 0 disables the ladder entirely (legacy timeout -> recover()).
  u32 abort_budget = 0;
  /// Consecutive abort timeouts (across commands) that demote the shm data
  /// path — aborts ride the control channel, so if they fail while shm is
  /// up, the fast path is the prime suspect.
  u32 demote_after_failed_aborts = 2;

  [[nodiscard]] bool enabled() const { return abort_budget > 0; }
};

/// Recovery activity, exported by initiator and target stats and printed by
/// tools/oaf_perf.
struct ResilienceCounters {
  u64 reconnects = 0;          ///< successful re-handshakes
  u64 reconnect_failures = 0;  ///< attempts that never saw ICResp
  u64 commands_retried = 0;    ///< in-flight commands replayed after recovery
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
