// Telemetry entry points: the process-global metrics registry and trace
// recorder.
//
// Instrumentation is always compiled in and always live (DESIGN.md §9.3):
// counters and gauges record unconditionally (a relaxed increment is cheaper
// than a branch-plus-increment would save, and the registry is the source of
// truth for the target's stats dumps), and so does every trace event the
// flight dump and anomaly capture read. The one runtime switch,
// tracer().set_enabled(), only adds the per-I/O detail events a Chrome
// export wants (--trace-out).
#pragma once

#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace oaf::telemetry {

/// Process-global metrics registry. Components resolve their handles once
/// (construction time) and cache the returned pointers.
MetricsRegistry& metrics();

/// The process's one trace ring. Always recording; enabled() gates only the
/// detail events.
TraceRecorder& tracer();

/// Counter bump through a cached handle; a null handle is a no-op.
inline void bump(Counter* c, u64 n = 1) {
  if (c != nullptr) c->inc(n);
}

}  // namespace oaf::telemetry
