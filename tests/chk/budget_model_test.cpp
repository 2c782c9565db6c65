// Model-checked invariants of the target's staging-budget grant/release
// protocol (DESIGN.md §12).
//
// At admission the target charges a command's full transfer length to its
// connection's staging pool and that pool's service-wide parent, both or
// neither (af::StagingPool::acquire). The charge lives in the StagingBuffer
// the command holds; an abort that orphans the buffer moves it into the
// zombie map. Destroying the buffer is the one release, whichever comes
// first of: the command retiring, its zombie entry being erased, or the
// connection being torn down. The events are serialized by the connection's
// executor but can arrive in any order; the models below prove that under
// every ordering the budget is never over-granted past capacity, every
// admitted charge is released exactly once (no leak, no double credit), and
// an abort/teardown racing a completion never strands or duplicates a
// charge.
#include <gtest/gtest.h>

#include "chk/atomic.h"
#include "chk/check.h"

namespace oaf::nvmf {
namespace {

using oaf::chk::RunResult;
using oaf::u32;

/// Admission under a shared budget: three commands race for two units of
/// capacity. Grants must never exceed capacity, every denied command must
/// leave the budget untouched, and once every granted command completes the
/// budget returns to zero.
struct BudgetGrantModel {
  static constexpr u32 kThreads = 3;
  static constexpr u32 kCapacity = 2;

  oaf::chk::mutex mu;
  u32 in_use = 0;
  u32 peak = 0;
  u32 granted = 0;
  u32 denied = 0;

  void thread(u32) {
    // Admission: try_acquire(1) against the shared budget.
    mu.lock();
    const bool ok = in_use + 1 <= kCapacity;
    if (ok) {
      in_use++;
      if (in_use > peak) peak = in_use;
      granted++;
    } else {
      denied++;  // kQueueFull reject: no charge taken
    }
    mu.unlock();
    if (!ok) return;
    // Completion: erase_inflight releases exactly the admitted charge.
    mu.lock();
    in_use--;
    mu.unlock();
  }

  void finish() {
    CHK_ASSERT(in_use == 0, "charge leaked after all commands resolved");
    CHK_ASSERT(peak <= kCapacity, "budget over-granted past capacity");
    CHK_ASSERT(granted + denied == kThreads, "admission lost a command");
  }
};

TEST(ChkBudget, GrantNeverExceedsCapacityAndAlwaysReturns) {
  const RunResult r = oaf::chk::check<BudgetGrantModel>();
  EXPECT_TRUE(r.ok) << r.report();
  EXPECT_TRUE(r.exhausted);
}

/// Abort vs completion for one admitted command carrying one unit of
/// charge. handle_abort moves the charge onto the zombie buffer and zeroes
/// the IoCtx's copy, so whichever release point fires — erase_inflight for
/// the ctx, drop_zombie for the orphaned buffer — the unit comes back
/// exactly once.
struct AbortChargeHandoffModel {
  static constexpr u32 kThreads = 2;

  oaf::chk::mutex mu;
  bool inflight = true;   ///< IoCtx present
  u32 ctx_charge = 1;     ///< charge riding the IoCtx
  u32 zombie_charge = 0;  ///< charge parked on the zombie buffer
  u32 released = 0;       ///< units returned to the budget

  void abort_cmd() {
    // handle_abort: the staging buffer (and its charge) moves to the zombie
    // map; the victim's CapsuleResp will then release a zero charge.
    mu.lock();
    if (inflight && ctx_charge > 0) {
      zombie_charge += ctx_charge;
      ctx_charge = 0;
    }
    mu.unlock();
  }

  void complete_cmd() {
    // erase_inflight: release whatever charge the ctx still carries.
    mu.lock();
    if (inflight) {
      inflight = false;
      released += ctx_charge;
      ctx_charge = 0;
    }
    mu.unlock();
    // drop_zombie: the device/copy completion reclaims the orphaned buffer.
    mu.lock();
    released += zombie_charge;
    zombie_charge = 0;
    mu.unlock();
  }

  void thread(u32 t) {
    if (t == 0) {
      abort_cmd();
    } else {
      complete_cmd();
    }
  }

  void finish() {
    CHK_ASSERT(released == 1, "charge leaked or double-released across abort");
    CHK_ASSERT(ctx_charge == 0 && zombie_charge == 0, "charge stranded");
  }
};

TEST(ChkBudget, AbortHandoffReleasesChargeExactlyOnce) {
  const RunResult r = oaf::chk::check<AbortChargeHandoffModel>();
  EXPECT_TRUE(r.ok) << r.report();
  EXPECT_TRUE(r.exhausted);
}

/// Connection teardown (eviction, failover) racing a normal completion.
/// The destructor sweeps every remaining IoCtx and zombie charge back to
/// the service-owned global budget; a completion that already released its
/// charge must not be released again by the sweep.
struct TeardownSweepModel {
  static constexpr u32 kThreads = 2;

  oaf::chk::mutex mu;
  u32 inflight_charge = 1;  ///< one live command
  u32 zombie_charge = 1;    ///< one orphaned abort victim
  u32 released = 0;
  bool torn_down = false;

  void complete_one() {
    mu.lock();
    if (!torn_down) {
      released += inflight_charge;  // erase_inflight
      inflight_charge = 0;
    }
    mu.unlock();
  }

  void teardown() {
    // ~NvmfTargetConnection: release everything still charged.
    mu.lock();
    torn_down = true;
    released += inflight_charge + zombie_charge;
    inflight_charge = 0;
    zombie_charge = 0;
    mu.unlock();
  }

  void thread(u32 t) {
    if (t == 0) {
      complete_one();
    } else {
      teardown();
    }
  }

  void finish() {
    CHK_ASSERT(released == 2, "teardown leaked or double-released charges");
    CHK_ASSERT(inflight_charge == 0 && zombie_charge == 0,
               "charge survived teardown");
  }
};

TEST(ChkBudget, TeardownSweepNeverLeaksOrDoubleReleases) {
  const RunResult r = oaf::chk::check<TeardownSweepModel>();
  EXPECT_TRUE(r.ok) << r.report();
  EXPECT_TRUE(r.exhausted);
}

}  // namespace
}  // namespace oaf::nvmf
