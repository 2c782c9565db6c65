// Adaptive busy-poll governor (paper §4.5, Fig 10).
//
// Static poll budgets lose: 25 µs polls make pure-write workloads *slower*
// than interrupts (write completions arrive late, so every poll expires and
// its budget is wasted), while 100 µs polls burn CPU that read workloads
// need. The governor watches the recent read/write mix on a connection and
// re-tunes the receive poll budget: read-heavy -> short budget, write-heavy
// -> long budget, mixed -> middle.
#pragma once

#include "af/config.h"
#include "common/types.h"
#include "net/sim_channel.h"
#include "telemetry/telemetry.h"

namespace oaf::af {

class BusyPollGovernor {
 public:
  static constexpr DurNs kReadBudgetNs = 37'500;    // 25–50 µs band
  static constexpr DurNs kWriteBudgetNs = 100'000;  // writes want long polls
  static constexpr DurNs kMixedBudgetNs = 50'000;
  static constexpr u32 kWindowOps = 64;             // re-evaluate cadence

  BusyPollGovernor(BusyPollPolicy policy, DurNs static_budget_ns)
      : policy_(policy), static_budget_ns_(static_budget_ns) {}

  /// Attach the connection's receive side. Channels that are not tunable
  /// (functional plane, RDMA) make the governor a no-op.
  void attach(net::MsgChannel* channel) {
    tunable_ = dynamic_cast<net::BusyPollTunable*>(channel);
    apply(initial_budget());
  }

  /// Record one submitted operation; periodically re-tunes the budget from
  /// two signals: the read/write mix picks the base budget (paper §4.5),
  /// and the observed poll miss rate escalates it when completions keep
  /// arriving outside the window (so adaptive polling degrades gracefully
  /// instead of spinning-and-sleeping on every delivery).
  void record_op(bool is_write) {
    if (policy_ != BusyPollPolicy::kAdaptive) return;
    ops_++;
    if (is_write) writes_++;
    if (ops_ < kWindowOps) return;
    const double write_frac =
        static_cast<double>(writes_) / static_cast<double>(ops_);
    ops_ = 0;
    writes_ = 0;
    DurNs base = kMixedBudgetNs;
    int type = 1;
    if (write_frac >= 0.8) {
      base = kWriteBudgetNs;
      type = 2;
    } else if (write_frac <= 0.2) {
      base = kReadBudgetNs;
      type = 0;
    }
    if (type != workload_type_) {
      workload_type_ = type;
      escalation_ = 1;  // fresh workload: restart from the per-type base
    }
    if (tunable_ != nullptr) {
      const u64 hits = tunable_->rx_poll_hits();
      const u64 misses = tunable_->rx_poll_misses();
      const u64 dh = hits - last_hits_;
      const u64 dm = misses - last_misses_;
      last_hits_ = hits;
      last_misses_ = misses;
      telemetry::bump(tel().hits, dh);
      telemetry::bump(tel().misses, dm);
      if (dh + dm > 0) {
        // Budget utilization for the profiling plane (oaf_stat prof):
        // the fraction of polls whose budget actually caught a message.
        tel().hit_permille->set(
            static_cast<i64>(dh * 1000 / (dh + dm)));
      }
      if (dh + dm > 0 && escalation_ != kInterruptFallback) {
        const double miss_frac =
            static_cast<double>(dm) / static_cast<double>(dh + dm);
        if (miss_frac > 0.3) {
          if (escalation_ < kMaxEscalation) {
            escalation_ *= 2;  // widen the window toward the arrival cadence
          } else if (miss_frac > 0.6) {
            // Arrivals are simply too sparse for polling to win on this
            // workload: degrade gracefully to interrupt mode.
            escalation_ = kInterruptFallback;
            telemetry::bump(tel().fallbacks);
          }
        }
      }
    }
    telemetry::bump(tel().retunes);
    tel().workload->set(workload_type_);
    tel().escalation->set(escalation_);
    apply(escalation_ == kInterruptFallback ? 0 : base * escalation_);
  }

  [[nodiscard]] DurNs current_budget() const { return current_; }

 private:
  [[nodiscard]] DurNs initial_budget() const {
    switch (policy_) {
      case BusyPollPolicy::kInterrupt:
        return 0;
      case BusyPollPolicy::kStatic:
        return static_budget_ns_;
      case BusyPollPolicy::kAdaptive:
        return kMixedBudgetNs;
    }
    return 0;
  }

  void apply(DurNs budget) {
    current_ = budget;
    if (tunable_ != nullptr) tunable_->set_rx_poll_budget(budget);
    tel().budget->set(budget);
  }

  /// Process-global handles, registered once (governors are per-connection;
  /// the counters aggregate across them and the budget gauge reflects the
  /// most recently applied value — on a single-connection run, the live one).
  struct Tel {
    telemetry::Counter* hits = nullptr;
    telemetry::Counter* misses = nullptr;
    telemetry::Counter* retunes = nullptr;
    telemetry::Counter* fallbacks = nullptr;
    telemetry::Gauge* budget = nullptr;
    telemetry::Gauge* hit_permille = nullptr;
    telemetry::Gauge* workload = nullptr;
    telemetry::Gauge* escalation = nullptr;
  };
  static const Tel& tel() {
    static const Tel t = [] {
      auto& m = telemetry::metrics();
      return Tel{
          m.counter("oaf_busy_poll_hits_total",
                    "Receive polls that found a message within the budget"),
          m.counter("oaf_busy_poll_misses_total",
                    "Receive polls whose budget expired empty"),
          m.counter("oaf_busy_poll_retunes_total",
                    "Budget re-evaluations by the adaptive governor"),
          m.counter("oaf_busy_poll_interrupt_fallbacks_total",
                    "Degradations to interrupt mode (arrivals too sparse)"),
          m.gauge("oaf_busy_poll_budget_ns",
                  "Receive busy-poll budget most recently applied"),
          m.gauge("oaf_busy_poll_hit_permille",
                  "Budget utilization over the last window: polls that "
                  "caught a message, per thousand"),
          m.gauge("oaf_busy_poll_workload_class",
                  "Detected workload mix: 0 read-heavy, 1 mixed, 2 "
                  "write-heavy, -1 unknown"),
          m.gauge("oaf_busy_poll_escalation",
                  "Current budget multiplier (-1 = interrupt fallback)"),
      };
    }();
    return t;
  }

  static constexpr DurNs kMaxEscalation = 8;
  static constexpr DurNs kInterruptFallback = -1;

  BusyPollPolicy policy_;
  DurNs static_budget_ns_;
  net::BusyPollTunable* tunable_ = nullptr;
  DurNs current_ = 0;
  u32 ops_ = 0;
  u32 writes_ = 0;
  int workload_type_ = -1;
  DurNs escalation_ = 1;
  u64 last_hits_ = 0;
  u64 last_misses_ = 0;
};

}  // namespace oaf::af
