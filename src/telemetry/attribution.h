// Tail-latency attribution: per-I/O stage ledgers feeding sliding-window
// per-stage histograms, plus an SLO watchdog (DESIGN.md §13).
//
// The trace plane (telemetry/trace.h) answers "what happened to THIS I/O" —
// after the fact, with a Chrome timeline. The attribution plane answers the
// operational question the adaptivity controller and the operator both ask:
// "which stage made p999 spike in the last few seconds, and which I/Os did
// it?" — continuously, with bounded memory, while the run is still going.
//
// Three pieces:
//   - StageLedger: a compact fixed-size accumulator threaded through the
//     initiator's Pending and the target's IoCtx. Each lifecycle transition
//     calls enter(stage, now), which closes the currently-open phase into
//     its stage bucket and opens the next; detours (retries, queue-full
//     backoff, redrives) are credited explicitly. finalize() carves the
//     remotely-reported device/target residency out of the phase that was
//     open across the wire round-trip, so the remainder is genuine fabric
//     time — stages sum to end-to-end latency, nothing double-counted.
//   - Attribution: a ring of time-bucketed windows (default 8 × 1 s), each
//     holding per-stage and per-op-class Histograms, SLO breach counts, and
//     a top-K slowest tracker. Slots are tagged with their absolute window
//     index (now / window_ns); a record into a slot whose tag is stale
//     resets and retags it, which makes empty windows, forward clock steps,
//     and ring wraparound all the same non-special case. heat_json()/
//     top_json() serve the `oaf_stat heat|top` verbs.
//   - SLO watchdog: per-op-class latency budgets (--slo-read-us /
//     --slo-write-us). record() returns whether the I/O breached — the
//     caller uses that verdict to trigger retroactive anomaly capture
//     (telemetry/anomaly.h) — and maintains breach counters/gauges.
//
// Threading: record() takes one mutex (per-I/O cadence, same trade-off as
// HistogramMetric); the enabled flag is a relaxed atomic so the disabled
// path is one load. Ledger stamping itself is plain arithmetic on caller-
// owned state and needs no synchronisation.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/mutex.h"
#include "common/types.h"
#include "telemetry/metrics.h"
#include "telemetry/prof/cost_center.h"
#include "telemetry/stage.h"

namespace oaf::telemetry {

/// Op classes with independent SLOs.
enum class OpClass : u8 { kRead = 0, kWrite = 1 };
inline constexpr size_t kOpClassCount = 2;

[[nodiscard]] const char* to_string(OpClass c);

/// Fixed-size per-I/O stage accumulator. Lives inline in Pending/IoCtx;
/// 80 bytes, no allocation, no locks. The open-phase cursor means call
/// sites only mark transitions — durations fall out. Every Stage passed in
/// is a per-I/O stage (below kStageCount), never a cost-center-only value.
struct StageLedger {
  std::array<i64, kStageCount> stage_ns{};
  TimeNs phase_start = 0;  ///< when the open stage started accruing
  i8 open_stage = -1;      ///< Stage currently accruing, -1 = closed
  u8 touched = 0;          ///< bitmask of stages that were ever credited

  /// Zero everything and open `first` (normally kQueue) at `now`.
  void reset(TimeNs now, Stage first = Stage::kQueue) {
    stage_ns.fill(0);
    touched = 0;
    open_stage = static_cast<i8>(first);
    phase_start = now;
    touched |= static_cast<u8>(1u << static_cast<u8>(first));
    prof::set_cost_center(first);
  }

  /// Close the open phase into its stage and open `s` at `now`. Also stamps
  /// the thread's cost-center token so CPU samples and allocations that land
  /// while this phase is open are attributed to the same stage the
  /// nanoseconds are.
  void enter(Stage s, TimeNs now) {
    close(now);
    open_stage = static_cast<i8>(s);
    phase_start = now;
    touched |= static_cast<u8>(1u << static_cast<u8>(s));
    prof::set_cost_center(s);
  }

  /// Credit `d` nanoseconds to `s` without moving the open-phase cursor
  /// (detours: retry gaps, backoff sleeps, redrive parking).
  void credit(Stage s, DurNs d) {
    if (d <= 0) return;
    stage_ns[static_cast<size_t>(s)] += d;
    touched |= static_cast<u8>(1u << static_cast<u8>(s));
  }

  /// Close the open phase (if any) at `now` without opening another.
  void close(TimeNs now) {
    if (open_stage < 0) return;
    const i64 d = now - phase_start;
    if (d > 0) stage_ns[static_cast<size_t>(open_stage)] += d;
    open_stage = -1;
  }

  /// Completion: close the open phase, then carve the remotely-reported
  /// device/target residency out of the wire-wait stages (clamped — a
  /// skewed clock cannot push a stage negative) and credit kDevice/kTarget.
  /// Carve order is the stage open at completion first (a write's device
  /// wait sits in the kXfer tail), then kGrant (a read's device wait sits
  /// between capsule send and first data), then kXfer — whatever held the
  /// round-trip keeps only the fabric remainder.
  void finalize(TimeNs now, DurNs device_ns, DurNs target_ns) {
    const i8 wire_stage = open_stage;
    close(now);
    if (device_ns < 0) device_ns = 0;
    if (target_ns < 0) target_ns = 0;
    const i64 remote = device_ns + target_ns;
    if (remote <= 0) return;
    const size_t order[3] = {
        wire_stage >= 0 ? static_cast<size_t>(wire_stage)
                        : static_cast<size_t>(Stage::kGrant),
        static_cast<size_t>(Stage::kGrant), static_cast<size_t>(Stage::kXfer)};
    i64 left = remote;
    for (const size_t s : order) {
      if (left <= 0) break;
      i64& wire = stage_ns[s];
      const i64 carve = left < wire ? left : wire;
      wire -= carve;
      left -= carve;
    }
    const i64 carved = remote - left;
    const i64 dev = device_ns < carved ? device_ns : carved;
    credit(Stage::kDevice, dev);
    credit(Stage::kTarget, carved - dev);
  }

  [[nodiscard]] bool was_touched(Stage s) const {
    return (touched & (1u << static_cast<u8>(s))) != 0;
  }
  [[nodiscard]] i64 total_ns() const {
    i64 t = 0;
    for (const i64 v : stage_ns) t += v;
    return t;
  }
};

// Inline in every Pending and IoCtx: growing it grows every in-flight
// command — deliberate only.
static_assert(sizeof(void*) != 8 || sizeof(StageLedger) == 80,
              "StageLedger footprint changed (LP64)");

struct AttributionOptions {
  DurNs window_ns = 1'000'000'000;  ///< width of one window
  size_t windows = 8;               ///< ring depth (history = windows × width)
  size_t top_k = 8;                 ///< slowest I/Os tracked per window
  DurNs slo_read_ns = 0;            ///< read SLO; 0 = no read SLO
  DurNs slo_write_ns = 0;           ///< write SLO; 0 = no write SLO
};

/// One slowest-I/O record (top-K tracker entry).
struct TopEntry {
  i64 total_ns = 0;
  u64 trace_id = 0;
  OpClass op = OpClass::kRead;
  std::array<i64, kStageCount> stage_ns{};
};

/// Test/JSON-facing snapshot of one window.
struct WindowStats {
  u64 index = 0;  ///< absolute window index (start = index * window_ns)
  std::array<Histogram, kStageCount> stages{};
  std::array<Histogram, kOpClassCount> classes{};
  std::array<u64, kOpClassCount> breaches{};
  std::vector<TopEntry> top;  ///< sorted slowest-first
};

class Attribution {
 public:
  Attribution();

  /// (Re)arm with new options: resets the window ring and enables recording.
  void configure(const AttributionOptions& opts);
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] AttributionOptions options() const;
  [[nodiscard]] DurNs slo_for(OpClass c) const;

  /// Fold one completed I/O into the current window and the cumulative
  /// per-stage registry histograms. Returns true when the I/O breached its
  /// op-class SLO (the caller's cue to promote an anomaly capture).
  bool record(OpClass op, const StageLedger& ledger, i64 total_ns,
              u64 trace_id, TimeNs now);

  /// Attribute off-path time discovered outside a ledger's lifecycle
  /// (PathGroup redrives land here: the group, not the path, knows the gap).
  void record_detour(DurNs detour_ns, TimeNs now);

  /// Windowed per-stage heatmap JSON (`oaf_stat heat`): oldest→newest live
  /// windows with per-stage and per-class windowed quantiles + breaches.
  [[nodiscard]] std::string heat_json(TimeNs now) const;
  /// Top-K slowest I/Os per live window (`oaf_stat top`), with per-stage
  /// breakdowns — "show me the three I/Os that made p999 spike".
  [[nodiscard]] std::string top_json(TimeNs now) const;
  /// Cumulative per-stage summary (oaf_perf --json "stages" section).
  [[nodiscard]] std::string summary_json() const;

  /// Live (non-stale) windows oldest→newest as of `now`. Test hook.
  [[nodiscard]] std::vector<WindowStats> snapshot_windows(TimeNs now) const;

  /// Drop all windowed state (cumulative registry metrics are reset via
  /// MetricsRegistry::reset_for_test). Tests only.
  void reset_for_test();

 private:
  struct Slot {
    static constexpr u64 kEmpty = ~u64{0};
    u64 widx = kEmpty;  ///< absolute window index this slot holds
    std::array<Histogram, kStageCount> stages{};
    std::array<Histogram, kOpClassCount> classes{};
    std::array<u64, kOpClassCount> breaches{};
    std::vector<TopEntry> top;  ///< sorted slowest-first, ≤ top_k entries

    void reset(u64 new_widx) {
      widx = new_widx;
      for (auto& h : stages) h.reset();
      for (auto& h : classes) h.reset();
      breaches.fill(0);
      top.clear();
    }
  };

  /// Slot for the window containing `now`, resetting/retagging stale slots
  /// and publishing the previous window's breach gauge on rotation. Caller
  /// holds mu_.
  Slot& slot_for_locked(TimeNs now) OAF_REQUIRES(mu_);
  void push_top_locked(Slot& slot, const TopEntry& e) OAF_REQUIRES(mu_);

  mutable Mutex mu_;
  AttributionOptions opts_ OAF_GUARDED_BY(mu_);
  std::vector<Slot> slots_ OAF_GUARDED_BY(mu_);
  u64 last_widx_ OAF_GUARDED_BY(mu_) = Slot::kEmpty;
  std::atomic<bool> enabled_{false};

  // Registry handles, resolved once in the constructor.
  std::array<HistogramMetric*, kStageCount> stage_hist_{};
  Counter* breaches_total_ = nullptr;
  Counter* read_breaches_total_ = nullptr;
  Counter* write_breaches_total_ = nullptr;
  Gauge* last_window_breaches_ = nullptr;
};

/// Process-global attribution engine (disabled until configure()).
Attribution& attribution();

}  // namespace oaf::telemetry
