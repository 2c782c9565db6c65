#include "telemetry/prof/alloc_ledger.h"

#include <sstream>

namespace oaf::telemetry::prof {

namespace {
// constinit: std::atomic's constexpr default constructor zero-initializes
// at load time, so the interposer may charge this ledger for allocations
// made before main() without tripping a dynamic-init guard inside malloc.
constinit AllocLedger g_alloc_ledger;
}  // namespace

AllocLedger& alloc_ledger() { return g_alloc_ledger; }

#if defined(OAF_PROF)
// Defined in alloc_interpose.cpp. Referencing it here forces the linker to
// pull the interposer object out of the static archive into any binary that
// queries the ledger — a TU that only *defines* strong malloc symbols is
// otherwise dead to the linker and silently left out.
extern "C" int oaf_prof_interpose_anchor();

bool interposer_active() { return oaf_prof_interpose_anchor() != 0; }
#else
bool interposer_active() { return false; }
#endif

std::string alloc_ledger_json() {
  const AllocLedger::Snapshot s = alloc_ledger().snapshot();
  std::ostringstream os;
  os << "{\"interposed\":" << (interposer_active() ? "true" : "false")
     << ",\"total\":{\"allocs\":" << s.total.allocs
     << ",\"frees\":" << s.total.frees << ",\"bytes\":" << s.total.bytes
     << "},\"per_center\":{";
  bool first = true;
  for (std::size_t i = 0; i < kCostCenterCount; ++i) {
    const AllocCounts& c = s.center[i];
    if (c.allocs == 0 && c.frees == 0) continue;
    if (!first) os << ',';
    first = false;
    os << '"' << to_string(static_cast<Stage>(i))
       << "\":{\"allocs\":" << c.allocs << ",\"frees\":" << c.frees
       << ",\"bytes\":" << c.bytes << '}';
  }
  os << "}}";
  return os.str();
}

}  // namespace oaf::telemetry::prof
