// Retroactive anomaly capture (Hindsight-style): every I/O's spans land in
// the process's one trace ring (tracer()) regardless of trace mode; when an
// I/O breaches its SLO the ring's recent history — the breaching I/O, its
// neighbours on the same connection, and the peer-side half fetched over the
// wire by trace_id — is promoted to a durable oaf_anomaly_<n>.json. The
// recorder owns no ring: it is a filtered reader of tracer().
//
// The trade the flight recorder makes for crashes, this makes for tail
// latency: record everything cheaply all the time, pay the serialization
// cost only for the handful of I/Os that turn out to matter, after they
// turn out to matter. Tracing stays off; the evidence survives anyway.
//
// Lifecycle:
//   1. Process start: anomaly() exists, capture DISARMED — unit tests
//      exercising SLO paths don't litter the filesystem.
//   2. Tools call anomaly().configure({dir, ...}) to arm capture.
//   3. The initiator's completion path asks attribution().record() for the
//      breach verdict; on breach it calls claim() (rate-limited so one
//      stall doesn't produce a capture per queued I/O), fetches the
//      target-side events with an AnomalyReq PDU keyed by the wire
//      trace_id, and writes one file containing BOTH halves — the remote
//      timestamps pre-corrected onto the local clock via the NTP-style
//      offset estimate, so one capture shows both sides on one timeline.
//   4. A fetch timeout still writes the capture with an empty remote half:
//      evidence with a gap beats no evidence.
//
// The target arms its own recorder when given SLO flags and captures
// locally (no reverse fetch); either side answers AnomalyReq from tracer().
#pragma once

#include <optional>
#include <string>

#include "common/mutex.h"
#include "common/types.h"
#include "telemetry/attribution.h"

namespace oaf::telemetry {

struct AnomalyOptions {
  std::string dir = ".";  ///< directory for oaf_anomaly_<n>.json
  size_t max_captures = 8;
  /// Minimum spacing between captures. One 5 ms stall breaches every
  /// queued I/O at once; the first breach captures, the rest are counted
  /// by the SLO metrics but produce no further files until this elapses.
  DurNs min_interval_ns = 5'000'000'000;
  size_t max_events = 1024;  ///< per-side event cap in one capture
};

/// Everything one capture file records besides the local ring contents.
struct AnomalyContext {
  i64 index = 0;             ///< from begin_capture()
  const char* reason = "slo_breach";
  u64 trace_id = 0;          ///< wire trace id of the breaching I/O
  OpClass op = OpClass::kRead;
  i64 total_ns = 0;          ///< end-to-end latency that breached
  i64 slo_ns = 0;            ///< the budget it breached
  std::array<i64, kStageCount> stage_ns{};  ///< the I/O's stage ledger
  TimeNs t_from_ns = 0;      ///< local-clock window for neighbour events
  TimeNs t_to_ns = 0;
  i64 clock_offset_ns = 0;   ///< remote-minus-local estimate used
  u64 remote_pid = 0;        ///< 0 = no remote half (timeout / local-only)
  std::string remote_events_json;  ///< pre-rendered JSON array, "" = none
};

class AnomalyRecorder {
 public:
  AnomalyRecorder();

  /// Arm capture into opts.dir. Idempotent.
  void configure(const AnomalyOptions& opts);
  [[nodiscard]] bool armed() const {
    // Read under the lock: configure()/reset_for_test() write armed_ from
    // tool threads while completion paths poll it — the unlocked read the
    // annotation pass flagged was a (benign-looking) data race.
    MutexLock lk(mu_);
    return armed_;
  }
  [[nodiscard]] AnomalyOptions options() const;

  /// Rate-limit gate: claims a capture slot when armed, under max_captures,
  /// and min_interval_ns past the previous claim. Returns the capture index
  /// (the <n> in the filename) or -1 when suppressed. The claim is consumed
  /// whether or not the remote fetch later succeeds.
  [[nodiscard]] i64 begin_capture(TimeNs now);

  /// Capture-window pre-roll before a breaching I/O's start: it catches the
  /// neighbourhood that queued the I/O behind whatever stalled.
  static constexpr DurNs kPreRollNs = 1'000'000;

  /// begin_capture() for an I/O that breached at `now`, returning its
  /// context for capture(): op, total vs the class SLO, the ledger's stages
  /// and the window from kPreRollNs before its start (now - total_ns) to
  /// now. nullopt when the gate says no.
  [[nodiscard]] std::optional<AnomalyContext> claim(u64 trace_id, OpClass op,
                                                    i64 total_ns,
                                                    const StageLedger& ledger,
                                                    TimeNs now);

  /// Write oaf_anomaly_<ctx.index>.json: context + both event halves + the
  /// current attribution heatmap. Returns the path, or "" on I/O failure.
  std::string capture(const AnomalyContext& ctx);

  /// tracer()'s ring filtered for one capture: events whose async id matches
  /// `trace_id` (the I/O's full span set) plus any event inside
  /// [from_ns, to_ns] (neighbour I/Os, instants). `ts_adjust_ns` is added
  /// to every emitted ts_ns — the target answers AnomalyReq with
  /// -offset so its events land on the initiator's clock. Returns a JSON
  /// array of at most `max_events` entries in ring order: the I/O's own
  /// events first, then the newest neighbours in what is left.
  [[nodiscard]] std::string events_json(u64 trace_id, TimeNs from_ns,
                                        TimeNs to_ns, i64 ts_adjust_ns,
                                        size_t max_events) const;

  [[nodiscard]] u64 captures() const {
    MutexLock lk(mu_);
    return static_cast<u64>(next_index_);
  }

  /// Disarm and forget capture history (ring events survive). Tests only.
  void reset_for_test();

 private:
  mutable Mutex mu_;
  AnomalyOptions opts_ OAF_GUARDED_BY(mu_);
  bool armed_ OAF_GUARDED_BY(mu_) = false;
  i64 next_index_ OAF_GUARDED_BY(mu_) = 0;
  TimeNs last_claim_ns_ OAF_GUARDED_BY(mu_) = 0;
  bool claimed_once_ OAF_GUARDED_BY(mu_) = false;
  Counter* captures_total_ = nullptr;  ///< set once in the ctor
};

/// Process-global anomaly recorder (capture disarmed until configure()).
AnomalyRecorder& anomaly();

}  // namespace oaf::telemetry
