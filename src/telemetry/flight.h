// Flight recorder: a postmortem reader of the process's one trace ring,
// dumped to a JSON file when the process dies badly.
//
// It owns no ring. Every control-path event worth a postmortem — the
// resilience ladder's deadline/abort/demote/reconnect instants, TermReqs,
// overload verdicts, multipath failovers — is recorded into tracer() whether
// or not tracing is enabled, and the dump keeps only those categories
// (resilience, overload, multipath), so the last seconds before a crash are
// reconstructible without serialising the per-I/O spans around them.
//
// Lifecycle:
//   1. Process start: flight() exists, dumping DISARMED — unit tests that
//      exercise abort paths don't litter the filesystem.
//   2. Tools call flight().install({...}) to arm dumping (and optionally
//      hook fatal signals: SIGSEGV/SIGABRT/SIGBUS/SIGFPE/SIGILL).
//   3. On a fatal signal, a received/sent TermReq, or escalation-ladder
//      exhaustion, dump_now(reason) writes oaf_flight_<pid>.json — the
//      filtered ring snapshot (Chrome trace form) plus a full metrics
//      snapshot — then the signal is re-raised with default disposition so
//      the exit status is preserved.
//
// dump_now() from a signal handler is deliberately best-effort: it
// allocates and calls stdio, which is not async-signal-safe. That is the
// standard flight-recorder trade-off — the alternative is no data at all —
// and a recursion guard makes a crash-inside-dump terminate instead of
// looping.
#pragma once

#include <atomic>
#include <string>

namespace oaf::telemetry {

struct FlightOptions {
  std::string dir = ".";       ///< directory for oaf_flight_<pid>.json
  bool fatal_signals = true;   ///< install SIGSEGV/SIGABRT/... handlers
};

class FlightRecorder {
 public:
  /// Arm dumping (and optionally fatal-signal hooks). Idempotent; the
  /// first caller wins the signal-handler installation.
  void install(const FlightOptions& opts);
  [[nodiscard]] bool armed() const { return armed_; }

  /// Write the postmortem file if armed. Returns the path written, or an
  /// empty string when disarmed, re-entered, or on I/O failure.
  std::string dump_now(const char* reason);

 private:
  std::string dir_ = ".";
  bool armed_ = false;
  std::atomic<bool> dumping_{false};
};

/// Process-global flight recorder (dump disarmed until install()).
FlightRecorder& flight();

}  // namespace oaf::telemetry
