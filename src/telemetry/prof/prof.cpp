#include "telemetry/prof/prof.h"

#include <sstream>

#include "telemetry/telemetry.h"

namespace oaf::telemetry::prof {

namespace {

void append_cycles_json(std::ostringstream& os) {
  const CycleLedger::Snapshot s = cycle_ledger().snapshot();
  os << "{\"enabled\":" << (cycle_ledger().enabled() ? "true" : "false")
     << ",\"ios\":" << s.ios << ",\"per_center\":{";
  u64 hot_cycles = 0;
  bool first = true;
  for (std::size_t i = 0; i < kCostCenterCount; ++i) {
    if (s.visits[i] == 0) continue;
    if (!first) os << ',';
    first = false;
    const auto c = static_cast<Stage>(i);
    os << '"' << to_string(c) << "\":{\"cycles\":" << s.cycles[i]
       << ",\"visits\":" << s.visits[i] << '}';
    // The reactor/idle centers are machine bookkeeping, not per-I/O cost.
    if (c != Stage::kReactor && c != Stage::kIdle) {
      hot_cycles += s.cycles[i];
    }
  }
  os << "},\"hot_cycles\":" << hot_cycles;
  if (s.ios > 0) os << ",\"cycles_per_io\":" << hot_cycles / s.ios;
  os << '}';
}

void append_busy_poll_json(std::ostringstream& os) {
  // find-or-create: reads zeros when no governor has registered yet, which
  // is exactly what "no busy-poll activity" should look like.
  auto& m = metrics();
  const char* help = "Registered by BusyPollGovernor (af/busy_poll.h)";
  os << "{\"hits\":"
     << m.counter("oaf_busy_poll_hits_total", help)->value()
     << ",\"misses\":"
     << m.counter("oaf_busy_poll_misses_total", help)->value()
     << ",\"retunes\":"
     << m.counter("oaf_busy_poll_retunes_total", help)->value()
     << ",\"interrupt_fallbacks\":"
     << m.counter("oaf_busy_poll_interrupt_fallbacks_total", help)->value()
     << ",\"budget_ns\":"
     << m.gauge("oaf_busy_poll_budget_ns", help)->value()
     << ",\"hit_permille\":"
     << m.gauge("oaf_busy_poll_hit_permille", help)->value()
     << ",\"workload_class\":"
     << m.gauge("oaf_busy_poll_workload_class", help)->value()
     << ",\"escalation\":"
     << m.gauge("oaf_busy_poll_escalation", help)->value() << '}';
}

}  // namespace

std::string prof_json() {
  std::ostringstream os;
  os << "{\"reactor\":" << reactor_health().json() << ",\"cycles\":";
  append_cycles_json(os);
  os << ",\"allocs\":" << alloc_ledger_json()
     << ",\"sampler\":" << profiler().stats_json() << ",\"busy_poll\":";
  append_busy_poll_json(os);
  os << '}';
  return os.str();
}

}  // namespace oaf::telemetry::prof
