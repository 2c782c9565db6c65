// Cost centers: a thread-local token naming what the CPU is doing right now.
//
// The profiling plane (DESIGN.md §15) attributes three currencies — CPU
// samples, TSC cycles, and heap allocations — to the same small set of
// centers. A center is a telemetry::Stage (telemetry/stage.h): the per-I/O
// stages, so a StageLedger::enter() stamps the token for free, plus the
// centers for work outside a per-I/O stage (submission path, reactor
// bookkeeping, idle waits, control plane).
//
// Reading the token must be async-signal-safe: the SIGPROF sampler reads it
// from the interrupted thread, and the allocation interposer reads it from
// inside malloc. A plain thread_local word satisfies both — the only
// concurrent reader is a signal handler running on the owning thread, which
// always observes a fully written value.
#pragma once

#include <atomic>
#include <cstddef>

#include "common/types.h"
#include "telemetry/stage.h"

namespace oaf::telemetry::prof {

namespace internal {
// Not an atomic on purpose: stores happen on the owning thread and the only
// concurrent reader (the SIGPROF handler) runs on that same thread.
// constinit: the compiler then knows the word needs no dynamic
// initialization and addresses it directly, instead of through a TLS-init
// wrapper call (which UBSan flags as a store to a null pointer).
extern constinit thread_local u32 g_cost_center;
}  // namespace internal

inline void set_cost_center(Stage c) {
  internal::g_cost_center = static_cast<u32>(c);
}

inline Stage current_cost_center() {
  return static_cast<Stage>(internal::g_cost_center);
}

/// Clamp a raw token (e.g. read by the sampler) to a valid center.
inline Stage clamp_cost_center(u32 raw) {
  return raw < kCostCenterCount ? static_cast<Stage>(raw) : Stage::kOther;
}

/// Raw cycle counter. TSC on x86; zero elsewhere (cycle accounting then
/// degrades to "disabled" rather than lying with a slow clock syscall).
inline u64 rdcycles() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_ia32_rdtsc();
#else
  return 0;
#endif
}

/// Process-wide per-cost-center cycle and visit accounting, plus the I/O
/// completion count that turns totals into cycles/IO. All relaxed atomics:
/// the charge path is a fast path (submit/complete), and cross-center skew
/// of a few cycles is irrelevant at reporting granularity.
class CycleLedger {
 public:
  struct Snapshot {
    u64 cycles[kCostCenterCount];
    u64 visits[kCostCenterCount];
    u64 ios;
  };

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Cycles + one visit (a scope completed in this center).
  void charge(Stage c, u64 cycles) {
    const auto i = static_cast<std::size_t>(c);
    cycles_[i].fetch_add(cycles, std::memory_order_relaxed);
    visits_[i].fetch_add(1, std::memory_order_relaxed);
  }

  /// Cycles only — a scope was paused by a nested one (exclusive-time
  /// accounting): the segment's cycles land now, the visit at scope exit.
  void charge_partial(Stage c, u64 cycles) {
    cycles_[static_cast<std::size_t>(c)].fetch_add(cycles,
                                                   std::memory_order_relaxed);
  }

  /// Count a completed I/O (the cycles/IO denominator). No-op when cycle
  /// accounting is off so the disarmed fast path stays one relaxed load.
  void add_io() {
    if (enabled()) ios_.fetch_add(1, std::memory_order_relaxed);
  }

  Snapshot snapshot() const {
    Snapshot s{};
    for (std::size_t i = 0; i < kCostCenterCount; ++i) {
      s.cycles[i] = cycles_[i].load(std::memory_order_relaxed);
      s.visits[i] = visits_[i].load(std::memory_order_relaxed);
    }
    s.ios = ios_.load(std::memory_order_relaxed);
    return s;
  }

  void reset_for_test() {
    for (std::size_t i = 0; i < kCostCenterCount; ++i) {
      cycles_[i].store(0, std::memory_order_relaxed);
      visits_[i].store(0, std::memory_order_relaxed);
    }
    ios_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<u64> cycles_[kCostCenterCount]{};
  std::atomic<u64> visits_[kCostCenterCount]{};
  std::atomic<u64> ios_{0};
};

/// Process-global ledger (constinit in cost_center.cpp: safe to touch from
/// static-initialization-time allocation callbacks).
CycleLedger& cycle_ledger();

class CostScope;
namespace internal {
// Innermost armed CostScope on this thread (exclusive-time bookkeeping).
extern constinit thread_local CostScope* g_scope_top;
}  // namespace internal

/// RAII scope: stamps the thread's cost-center token (restoring the previous
/// one on exit) and, when cycle accounting is armed, charges elapsed TSC to
/// the center. Accounting is EXCLUSIVE: entering a nested scope pauses the
/// parent (charging its segment so far) and leaving resumes it, so summing
/// per-center cycles never counts the same cycle twice. Disarmed cost: two
/// TLS word stores + one relaxed load.
class CostScope {
 public:
  explicit CostScope(Stage c) : prev_(internal::g_cost_center), c_(c) {
    internal::g_cost_center = static_cast<u32>(c);
    if (cycle_ledger().enabled()) {
      armed_ = true;
      const u64 now = rdcycles();
      parent_ = internal::g_scope_top;
      if (parent_ != nullptr) {
        cycle_ledger().charge_partial(parent_->c_, now - parent_->start_);
      }
      start_ = now;
      internal::g_scope_top = this;
    }
  }
  ~CostScope() {
    if (armed_) {
      const u64 now = rdcycles();
      cycle_ledger().charge(c_, now - start_);
      internal::g_scope_top = parent_;
      if (parent_ != nullptr) parent_->start_ = now;
    }
    internal::g_cost_center = prev_;
  }
  CostScope(const CostScope&) = delete;
  CostScope& operator=(const CostScope&) = delete;

 private:
  u32 prev_;
  Stage c_;
  u64 start_ = 0;
  CostScope* parent_ = nullptr;
  bool armed_ = false;
};

}  // namespace oaf::telemetry::prof
