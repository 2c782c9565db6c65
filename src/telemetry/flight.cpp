#include "telemetry/flight.h"

#include <csignal>
#include <cstdio>
#include <cstring>

#include <unistd.h>

#include "common/json.h"
#include "common/log.h"
#include "telemetry/telemetry.h"

namespace oaf::telemetry {

namespace {

/// The postmortem slice of the ring: control-path categories only.
bool is_flight_event(const TraceEvent& ev) {
  return ev.cat != nullptr && (std::strcmp(ev.cat, "resilience") == 0 ||
                               std::strcmp(ev.cat, "overload") == 0 ||
                               std::strcmp(ev.cat, "multipath") == 0);
}

void fatal_signal_handler(int signo) {
  // Best-effort postmortem; see the async-signal-safety note in flight.h.
  flight().dump_now(strsignal(signo) != nullptr ? strsignal(signo) : "signal");
  // Restore default disposition and re-raise so the process still dies with
  // the original signal (core dumps, wait status, CI markers all intact).
  std::signal(signo, SIG_DFL);
  ::raise(signo);
}

}  // namespace

void FlightRecorder::install(const FlightOptions& opts) {
  dir_ = opts.dir.empty() ? "." : opts.dir;
  if (opts.fatal_signals && !armed_) {
    for (int signo : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL}) {
      struct sigaction sa = {};
      sa.sa_handler = fatal_signal_handler;
      sigemptyset(&sa.sa_mask);
      // SA_NODEFER is NOT set: a crash inside the handler re-enters with
      // the signal blocked -> default action, no infinite loop.
      sa.sa_flags = 0;
      sigaction(signo, &sa, nullptr);
    }
  }
  armed_ = true;
}

std::string FlightRecorder::dump_now(const char* reason) {
  if (!armed_) return {};
  bool expected = false;
  if (!dumping_.compare_exchange_strong(expected, true)) return {};

  const std::string path =
      dir_ + "/oaf_flight_" + std::to_string(::getpid()) + ".json";

  JsonWriter w;
  w.begin_object();
  w.key("reason").value(reason != nullptr ? reason : "unknown");
  w.key("pid").value(static_cast<u64>(::getpid()));
  const TraceRecorder& ring = tracer();
  w.key("dropped_events").value(ring.dropped());
  // Chrome-trace form so the postmortem loads straight into Perfetto.
  w.key("trace").raw(ring.to_chrome_json(ring.snapshot(is_flight_event)));
  w.key("metrics").raw(metrics().to_json());
  w.end_object();
  const std::string doc = w.take();

  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    dumping_.store(false);
    return {};
  }
  const bool wrote = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  const bool closed = std::fclose(f) == 0;
  dumping_.store(false);
  if (!wrote || !closed) return {};
  OAF_WARN("flight recorder dumped to %s (reason: %s)", path.c_str(),
           reason != nullptr ? reason : "unknown");
  return path;
}

FlightRecorder& flight() {
  static FlightRecorder* instance = new FlightRecorder();
  return *instance;
}

}  // namespace oaf::telemetry
