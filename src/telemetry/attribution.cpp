#include "telemetry/attribution.h"

#include <algorithm>
#include <string>

#include "common/json.h"
#include "telemetry/telemetry.h"

namespace oaf::telemetry {

namespace {

constexpr const char* kClassNames[kOpClassCount] = {"read", "write"};

void histogram_json(JsonWriter& w, const Histogram& h) {
  w.begin_object();
  w.key("count").value(h.count());
  w.key("p50").value(h.p50());
  w.key("p99").value(h.p99());
  w.key("p999").value(h.p999());
  w.key("max").value(h.max());
  w.end_object();
}

}  // namespace

const char* to_string(OpClass c) {
  const auto i = static_cast<size_t>(c);
  return i < kOpClassCount ? kClassNames[i] : "?";
}

Attribution::Attribution() {
  for (size_t s = 0; s < kStageCount; ++s) {
    std::string name = "oaf_stage_";  // audited: histograms end _ns
    name += kStageNames[s];
    name += "_ns";
    stage_hist_[s] =
        metrics().histogram(name, "Cumulative per-I/O time in this stage");
  }
  breaches_total_ =
      metrics().counter("oaf_slo_breaches_total", "I/Os that breached their SLO");
  read_breaches_total_ = metrics().counter("oaf_slo_read_breaches_total",
                                           "Read I/Os over --slo-read-us");
  write_breaches_total_ = metrics().counter("oaf_slo_write_breaches_total",
                                            "Write I/Os over --slo-write-us");
  last_window_breaches_ =
      metrics().gauge("oaf_slo_last_window_breaches",
                      "SLO breaches in the last completed window");
  slots_.resize(opts_.windows);
}

void Attribution::configure(const AttributionOptions& opts) {
  {
    MutexLock lk(mu_);
    opts_ = opts;
    if (opts_.window_ns <= 0) opts_.window_ns = 1'000'000'000;
    if (opts_.windows == 0) opts_.windows = 1;
    slots_.assign(opts_.windows, Slot{});
    last_widx_ = Slot::kEmpty;
  }
  set_enabled(true);
}

AttributionOptions Attribution::options() const {
  MutexLock lk(mu_);
  return opts_;
}

DurNs Attribution::slo_for(OpClass c) const {
  MutexLock lk(mu_);
  return c == OpClass::kWrite ? opts_.slo_write_ns : opts_.slo_read_ns;
}

Attribution::Slot& Attribution::slot_for_locked(TimeNs now) {
  if (now < 0) now = 0;
  const u64 widx = static_cast<u64>(now) / static_cast<u64>(opts_.window_ns);
  Slot& slot = slots_[widx % slots_.size()];
  if (slot.widx != widx) {
    // Rotation: the previous current window (if it still lives in the ring)
    // is now complete — publish its breach total before anything is lost.
    if (last_widx_ != Slot::kEmpty && widx > last_widx_) {
      const Slot& prev = slots_[last_widx_ % slots_.size()];
      if (prev.widx == last_widx_) {
        last_window_breaches_->set(
            static_cast<i64>(prev.breaches[0] + prev.breaches[1]));
      }
    }
    slot.reset(widx);
  }
  if (last_widx_ == Slot::kEmpty || widx > last_widx_) last_widx_ = widx;
  return slot;
}

void Attribution::push_top_locked(Slot& slot, const TopEntry& e) {
  // Sorted slowest-first; evict the fastest (back) when over top_k. The
  // bound keeps insertion O(top_k) — fine at per-I/O cadence for small K.
  if (slot.top.size() >= opts_.top_k && !slot.top.empty() &&
      e.total_ns <= slot.top.back().total_ns) {
    return;
  }
  auto it = std::upper_bound(
      slot.top.begin(), slot.top.end(), e,
      [](const TopEntry& a, const TopEntry& b) { return a.total_ns > b.total_ns; });
  slot.top.insert(it, e);
  if (slot.top.size() > opts_.top_k) slot.top.pop_back();
}

bool Attribution::record(OpClass op, const StageLedger& ledger, i64 total_ns,
                         u64 trace_id, TimeNs now) {
  if (!enabled()) return false;
  if (total_ns < 0) total_ns = 0;

  MutexLock lk(mu_);
  Slot& slot = slot_for_locked(now);

  for (size_t s = 0; s < kStageCount; ++s) {
    if (!ledger.was_touched(static_cast<Stage>(s))) continue;
    slot.stages[s].record(ledger.stage_ns[s]);
    stage_hist_[s]->record(ledger.stage_ns[s]);
  }
  const auto cls = static_cast<size_t>(op);
  slot.classes[cls].record(total_ns);

  const DurNs slo =
      op == OpClass::kWrite ? opts_.slo_write_ns : opts_.slo_read_ns;
  const bool breach = slo > 0 && total_ns > slo;
  if (breach) {
    slot.breaches[cls]++;
    bump(breaches_total_);
    bump(op == OpClass::kWrite ? write_breaches_total_ : read_breaches_total_);
  }

  TopEntry e;
  e.total_ns = total_ns;
  e.trace_id = trace_id;
  e.op = op;
  e.stage_ns = ledger.stage_ns;
  push_top_locked(slot, e);
  return breach;
}

void Attribution::record_detour(DurNs detour_ns, TimeNs now) {
  if (!enabled() || detour_ns <= 0) return;
  MutexLock lk(mu_);
  Slot& slot = slot_for_locked(now);
  const auto d = static_cast<size_t>(Stage::kDetour);
  slot.stages[d].record(detour_ns);
  stage_hist_[d]->record(detour_ns);
}

std::vector<WindowStats> Attribution::snapshot_windows(TimeNs now) const {
  if (now < 0) now = 0;
  MutexLock lk(mu_);
  const u64 cur = static_cast<u64>(now) / static_cast<u64>(opts_.window_ns);
  const u64 depth = slots_.size();
  const u64 first = cur + 1 >= depth ? cur + 1 - depth : 0;
  std::vector<WindowStats> out;
  for (u64 widx = first; widx <= cur; ++widx) {
    const Slot& slot = slots_[widx % depth];
    if (slot.widx != widx) continue;  // stale or never filled: skip
    WindowStats w;
    w.index = widx;
    w.stages = slot.stages;
    w.classes = slot.classes;
    w.breaches = slot.breaches;
    w.top = slot.top;
    out.push_back(std::move(w));
  }
  return out;
}

std::string Attribution::heat_json(TimeNs now) const {
  const AttributionOptions opts = options();
  const std::vector<WindowStats> windows = snapshot_windows(now);
  JsonWriter w;
  w.begin_object();
  w.key("window_ns").value(static_cast<i64>(opts.window_ns));
  w.key("slo_read_ns").value(static_cast<i64>(opts.slo_read_ns));
  w.key("slo_write_ns").value(static_cast<i64>(opts.slo_write_ns));
  w.key("windows").begin_array();
  for (const WindowStats& win : windows) {
    w.begin_object();
    w.key("index").value(win.index);
    w.key("start_ns").value(
        static_cast<i64>(win.index * static_cast<u64>(opts.window_ns)));
    w.key("stages").begin_object();
    for (size_t s = 0; s < kStageCount; ++s) {
      if (win.stages[s].count() == 0) continue;
      w.key(kStageNames[s]);
      histogram_json(w, win.stages[s]);
    }
    w.end_object();
    w.key("classes").begin_object();
    for (size_t c = 0; c < kOpClassCount; ++c) {
      if (win.classes[c].count() == 0 && win.breaches[c] == 0) continue;
      w.key(kClassNames[c]).begin_object();
      w.key("count").value(win.classes[c].count());
      w.key("p50").value(win.classes[c].p50());
      w.key("p99").value(win.classes[c].p99());
      w.key("p999").value(win.classes[c].p999());
      w.key("max").value(win.classes[c].max());
      w.key("breaches").value(win.breaches[c]);
      w.end_object();
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

std::string Attribution::top_json(TimeNs now) const {
  const AttributionOptions opts = options();
  const std::vector<WindowStats> windows = snapshot_windows(now);
  JsonWriter w;
  w.begin_object();
  w.key("window_ns").value(static_cast<i64>(opts.window_ns));
  w.key("windows").begin_array();
  for (const WindowStats& win : windows) {
    w.begin_object();
    w.key("index").value(win.index);
    w.key("top").begin_array();
    for (const TopEntry& e : win.top) {
      w.begin_object();
      w.key("total_ns").value(e.total_ns);
      w.key("trace_id").value(e.trace_id);
      w.key("op").value(to_string(e.op));
      w.key("stages").begin_object();
      for (size_t s = 0; s < kStageCount; ++s) {
        if (e.stage_ns[s] == 0) continue;
        w.key(kStageNames[s]).value(e.stage_ns[s]);
      }
      w.end_object();
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

std::string Attribution::summary_json() const {
  JsonWriter w;
  w.begin_object();
  for (size_t s = 0; s < kStageCount; ++s) {
    const Histogram h = stage_hist_[s]->snapshot();
    w.key(kStageNames[s]).begin_object();
    w.key("count").value(h.count());
    w.key("mean").value(h.mean());
    w.key("p50").value(h.p50());
    w.key("p99").value(h.p99());
    w.key("p999").value(h.p999());
    w.key("max").value(h.max());
    w.end_object();
  }
  w.end_object();
  return w.take();
}

void Attribution::reset_for_test() {
  MutexLock lk(mu_);
  for (Slot& s : slots_) s = Slot{};
  last_widx_ = Slot::kEmpty;
}

Attribution& attribution() {
  static Attribution* instance = new Attribution();
  return *instance;
}

}  // namespace oaf::telemetry
