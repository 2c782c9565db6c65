#include "telemetry/anomaly.h"

#include <cstdio>

#include <unistd.h>

#include "common/json.h"
#include "common/log.h"
#include "telemetry/telemetry.h"

namespace oaf::telemetry {

AnomalyRecorder::AnomalyRecorder() {
  captures_total_ = metrics().counter("oaf_anomaly_captures_total",
                                      "Anomaly capture files written");
}

void AnomalyRecorder::configure(const AnomalyOptions& opts) {
  MutexLock lk(mu_);
  opts_ = opts;
  if (opts_.dir.empty()) opts_.dir = ".";
  armed_ = true;
}

AnomalyOptions AnomalyRecorder::options() const {
  MutexLock lk(mu_);
  return opts_;
}

i64 AnomalyRecorder::begin_capture(TimeNs now) {
  MutexLock lk(mu_);
  if (!armed_) return -1;
  if (static_cast<size_t>(next_index_) >= opts_.max_captures) return -1;
  if (claimed_once_ && now - last_claim_ns_ < opts_.min_interval_ns) return -1;
  claimed_once_ = true;
  last_claim_ns_ = now;
  return next_index_++;
}

std::optional<AnomalyContext> AnomalyRecorder::claim(u64 trace_id, OpClass op,
                                                     i64 total_ns,
                                                     const StageLedger& ledger,
                                                     TimeNs now) {
  const i64 idx = begin_capture(now);
  if (idx < 0) return std::nullopt;
  AnomalyContext ctx;
  ctx.index = idx;
  ctx.trace_id = trace_id;
  ctx.op = op;
  ctx.total_ns = total_ns;
  ctx.slo_ns = attribution().slo_for(op);
  ctx.stage_ns = ledger.stage_ns;
  ctx.t_from_ns = now - total_ns - kPreRollNs;
  ctx.t_to_ns = now;
  return ctx;
}

std::string AnomalyRecorder::events_json(u64 trace_id, TimeNs from_ns,
                                         TimeNs to_ns, i64 ts_adjust_ns,
                                         size_t max_events) const {
  const auto ours = [&](const TraceEvent& ev) {
    return trace_id != 0 && ev.id == trace_id;
  };
  const std::vector<TraceEvent> events =
      tracer().snapshot([&](const TraceEvent& ev) {
        if (ev.name == nullptr || ev.cat == nullptr) return false;  // blank
        return ours(ev) || (ev.ts_ns >= from_ns && ev.ts_ns <= to_ns);
      });
  // Two passes from the newest end: the I/O's own events take the budget
  // first, window neighbours get the rest.
  std::vector<bool> keep(events.size(), false);
  size_t budget = max_events;
  for (const bool want_ours : {true, false}) {
    for (size_t i = events.size(); i-- > 0 && budget > 0;) {
      if (ours(events[i]) != want_ours) continue;
      keep[i] = true;
      budget--;
    }
  }
  JsonWriter w;
  w.begin_array();
  for (size_t i = 0; i < events.size(); ++i) {
    if (!keep[i]) continue;
    const TraceEvent& ev = events[i];
    w.begin_object();
    w.key("name").value(ev.name);
    w.key("cat").value(ev.cat);
    const char ph[2] = {ev.phase, '\0'};
    w.key("ph").value(static_cast<const char*>(ph));
    w.key("ts_ns").value(ev.ts_ns + ts_adjust_ns);
    w.key("id").value(ev.id);
    if (ev.phase == 'X') w.key("dur_ns").value(static_cast<i64>(ev.dur_ns));
    if (ev.arg_name != nullptr) {
      w.key(ev.arg_name).value(ev.arg);
    }
    w.end_object();
  }
  w.end_array();
  return w.take();
}

std::string AnomalyRecorder::capture(const AnomalyContext& ctx) {
  AnomalyOptions opts;
  {
    MutexLock lk(mu_);
    if (!armed_) return {};
    opts = opts_;
  }

  const std::string local_events = events_json(
      ctx.trace_id, ctx.t_from_ns, ctx.t_to_ns, 0, opts.max_events);

  JsonWriter w;
  w.begin_object();
  w.key("reason").value(ctx.reason != nullptr ? ctx.reason : "unknown");
  w.key("trace_id").value(ctx.trace_id);
  w.key("op").value(to_string(ctx.op));
  w.key("total_ns").value(ctx.total_ns);
  w.key("slo_ns").value(ctx.slo_ns);
  w.key("stages").begin_object();
  for (size_t s = 0; s < kStageCount; ++s) {
    if (ctx.stage_ns[s] == 0) continue;
    w.key(to_string(static_cast<Stage>(s))).value(ctx.stage_ns[s]);
  }
  w.end_object();
  w.key("clock_offset_ns").value(ctx.clock_offset_ns);
  w.key("local").begin_object();
  w.key("pid").value(static_cast<u64>(::getpid()));
  w.key("events").raw(local_events);
  w.end_object();
  w.key("remote").begin_object();
  w.key("pid").value(ctx.remote_pid);
  w.key("events").raw(ctx.remote_events_json.empty()
                          ? std::string_view("[]")
                          : std::string_view(ctx.remote_events_json));
  w.end_object();
  // The windowed heatmap as of the breach — which stage was hot is visible
  // without a second tool invocation.
  w.key("heat").raw(attribution().heat_json(ctx.t_to_ns));
  w.end_object();
  const std::string doc = w.take();

  const std::string path =
      opts.dir + "/oaf_anomaly_" + std::to_string(ctx.index) + ".json";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return {};
  const bool wrote = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) return {};
  bump(captures_total_);
  OAF_WARN("anomaly capture written to %s (trace_id %llu, %lld ns > %lld ns)",
           path.c_str(), static_cast<unsigned long long>(ctx.trace_id),
           static_cast<long long>(ctx.total_ns),
           static_cast<long long>(ctx.slo_ns));
  return path;
}

void AnomalyRecorder::reset_for_test() {
  MutexLock lk(mu_);
  armed_ = false;
  next_index_ = 0;
  last_claim_ns_ = 0;
  claimed_once_ = false;
  opts_ = AnomalyOptions{};
}

AnomalyRecorder& anomaly() {
  static AnomalyRecorder* instance = new AnomalyRecorder();
  return *instance;
}

}  // namespace oaf::telemetry
