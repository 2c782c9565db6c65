// Allocation ledger: allocs / frees / bytes per cost center.
//
// The counters are fed by the OAF_PROF interposer (alloc_interpose.cpp),
// which replaces malloc/calloc/realloc/free and the operator new/delete
// family, attributes each event to the calling thread's cost-center token,
// and forwards to the real glibc allocator. The ledger itself is
// allocation-free and lock-free (relaxed atomics only), because it runs
// INSIDE malloc: any allocation or lock here would recurse or deadlock.
//
// Without OAF_PROF (or under ASan/TSan, which own malloc) the interposer is
// absent, interposer_active() reports false, and every count reads zero —
// callers print "interposer absent" rather than a misleading 0 allocs/IO.
#pragma once

#include <array>
#include <atomic>
#include <string>

#include "common/types.h"
#include "telemetry/prof/cost_center.h"

namespace oaf::telemetry::prof {

struct AllocCounts {
  u64 allocs = 0;
  u64 frees = 0;
  u64 bytes = 0;
};

class AllocLedger {
 public:
  struct Snapshot {
    std::array<AllocCounts, kCostCenterCount> center;
    AllocCounts total;
  };

  /// Called from inside malloc — async-signal-safe discipline applies.
  void record_alloc(std::size_t bytes) {
    const auto i = center_index();
    allocs_[i].fetch_add(1, std::memory_order_relaxed);
    bytes_[i].fetch_add(bytes, std::memory_order_relaxed);
  }

  void record_free() {
    frees_[center_index()].fetch_add(1, std::memory_order_relaxed);
  }

  Snapshot snapshot() const {
    Snapshot s{};
    for (std::size_t i = 0; i < kCostCenterCount; ++i) {
      s.center[i].allocs = allocs_[i].load(std::memory_order_relaxed);
      s.center[i].frees = frees_[i].load(std::memory_order_relaxed);
      s.center[i].bytes = bytes_[i].load(std::memory_order_relaxed);
      s.total.allocs += s.center[i].allocs;
      s.total.frees += s.center[i].frees;
      s.total.bytes += s.center[i].bytes;
    }
    return s;
  }

  void reset_for_test() {
    for (std::size_t i = 0; i < kCostCenterCount; ++i) {
      allocs_[i].store(0, std::memory_order_relaxed);
      frees_[i].store(0, std::memory_order_relaxed);
      bytes_[i].store(0, std::memory_order_relaxed);
    }
  }

 private:
  static std::size_t center_index() {
    const u32 raw = internal::g_cost_center;
    return raw < kCostCenterCount ? raw
                                  : static_cast<std::size_t>(Stage::kOther);
  }

  std::atomic<u64> allocs_[kCostCenterCount]{};
  std::atomic<u64> frees_[kCostCenterCount]{};
  std::atomic<u64> bytes_[kCostCenterCount]{};
};

/// Process-global ledger. constinit (defined in alloc_ledger.cpp): usable
/// from allocations that happen during static initialization, before any
/// dynamic constructor has run.
AllocLedger& alloc_ledger();

/// True when the malloc/operator-new interposer is linked into this binary
/// (OAF_PROF build, no sanitizer owning the allocator). Counts are only
/// meaningful when this is true.
bool interposer_active();

/// Ledger snapshot as JSON (per-center + totals) for `oaf_stat prof`.
std::string alloc_ledger_json();

}  // namespace oaf::telemetry::prof
