#include "telemetry/prof/cost_center.h"

namespace oaf::telemetry::prof {

namespace internal {
// Static (non-dynamic) initializer: valid before any constructor runs, so
// the allocation interposer may read it during static initialization.
constinit thread_local u32 g_cost_center = static_cast<u32>(Stage::kOther);
constinit thread_local CostScope* g_scope_top = nullptr;
}  // namespace internal

CycleLedger& cycle_ledger() {
  // constinit, not a lazily-constructed Meyers static: CostScope may consult
  // the ledger before main() (static-init-time code paths), and the guard
  // variable a dynamic initializer needs is not async-signal-safe.
  static constinit CycleLedger ledger;
  return ledger;
}

}  // namespace oaf::telemetry::prof
