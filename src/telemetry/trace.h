// Per-I/O span recorder: a bounded lock-free ring of trace events exportable
// as Chrome trace_event JSON (chrome://tracing, Perfetto).
//
// One I/O's lifecycle — submit → capsule encode → R2T/in-capsule decision →
// shm slot acquire/park → data transfer → completion, plus abort/retry/
// reconnect detours — renders as nested/async spans across the initiator and
// target tracks on a single timeline. Span begin/end pairs are matched by
// (category, id, name) using async 'b'/'e' phases, so a span may start on the
// initiator thread and be annotated from anywhere that knows the command's
// generation tag.
//
// The process holds one recorder, tracer() (telemetry.h), and every
// instrumentation site records into it exactly once. Recording is
// unconditional; enabled() is the one runtime switch, consulted only by the
// few per-I/O detail sites (shm stage/consume, zero-copy publish/consume,
// R2T sent) that a run asks for with --trace-out. The flight dump, anomaly
// capture and Chrome export are readers of the same ring (DESIGN.md §9.2).
//
// Recording is wait-free: one relaxed fetch_add on the ring head, one CAS to
// claim the slot's sequence word, and the payload copy. Each slot carries a
// seqlock-style sequence number — odd while a writer owns it, even once the
// record for a given ring index is published — so a reader can detect and
// skip records that are mid-write or overwritten during the copy, and a
// writer that finds the slot claimed by a wrap-around racer drops its event
// instead of tearing the slot (collision_drops() counts these). When the
// ring wraps, the oldest events are overwritten and a drop counter advances —
// exporters say how much history was lost instead of silently pretending
// completeness. snapshot()/export may run concurrently with recording; torn
// or in-flight slots are skipped, never emitted.
//
// All name/category strings must be string literals (or otherwise outlive the
// recorder): slots store `const char*` so recording never allocates.
//
// Templatized over an atomics policy (common/atomics_policy.h): production
// uses the TraceRecorder alias (std::atomic); the deterministic model checker
// instantiates BasicTraceRecorder<chk::CheckedPolicy>, where the policy's
// torn_copy interleaves mid-copy so the sequence protocol is verified against
// genuinely torn payloads (tests/chk/trace_ring_model_test.cpp).
#pragma once

#include <atomic>
#include <cstdio>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/atomics_policy.h"
#include "common/thread_annotations.h"
#include "common/json.h"
#include "common/types.h"

namespace oaf::telemetry {

struct TraceEvent {
  const char* name = nullptr;  ///< span/instant name (string literal)
  const char* cat = nullptr;   ///< category, groups related spans (literal)
  char phase = 'i';            ///< 'b'/'e' async span, 'X' complete, 'i' instant
  u32 track = 0;               ///< rendered as a thread lane; see track()
  TimeNs ts_ns = 0;            ///< event time (executor clock)
  DurNs dur_ns = 0;            ///< for 'X' only
  u64 id = 0;                  ///< async pairing id (command generation/seq)
  const char* arg_name = nullptr;  ///< optional single argument (literal)
  i64 arg = 0;
};

// Records are copied into/out of the lock-free ring word-by-word under the
// seqlock protocol (Policy::torn_copy/torn_read): the type must stay
// trivially copyable, and growing it widens every slot — deliberate only.
static_assert(std::is_trivially_copyable_v<TraceEvent>,
              "TraceEvent is copied raw through the trace ring");
static_assert(sizeof(void*) != 8 || sizeof(TraceEvent) == 64,
              "TraceEvent slot footprint changed (LP64)");

namespace detail {

/// Chrome's ts/dur fields are microseconds; emit ns with fixed 3-decimal
/// precision so nanosecond-granular sim timestamps survive round-tripping
/// and output is byte-stable.
inline void append_us(std::string& out, i64 ns) {
  const char* sign = "";
  if (ns < 0) {
    sign = "-";
    ns = -ns;
  }
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%s%lld.%03lld", sign,
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  out += buf;
}

}  // namespace detail

template <typename Policy = StdAtomicsPolicy>
class BasicTraceRecorder {
  template <typename U>
  using Atomic = typename Policy::template atomic<U>;

 public:
  explicit BasicTraceRecorder(size_t capacity = 1 << 16)
      : ring_(capacity > 0 ? capacity : 1) {}

  /// Runtime switch for detail events: sites that record only while tracing
  /// check enabled() first. record() itself ignores it.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Register (or find) a display lane. Typical names: "init:conn0",
  /// "target:conn0", "af:client". Cheap enough for per-connection setup,
  /// not meant for the per-event path — cache the returned id.
  u32 track(const std::string& name) {
    typename Policy::lock lk(track_mu_);
    for (size_t i = 0; i < track_names_.size(); ++i) {
      if (track_names_[i] == name) return static_cast<u32>(i + 1);
    }
    track_names_.push_back(name);
    return static_cast<u32>(track_names_.size());
  }

  void record(const TraceEvent& ev) {
    const u64 idx = head_.fetch_add(1, std::memory_order_relaxed);
    Slot& slot = ring_[idx % ring_.size()];
    // Sequence protocol: the record for ring index i is published when
    // seq == 2*(i+1); a writer owns the slot while seq == 2*(i+1)-1 (odd).
    // Values grow monotonically per slot, so there is no ABA.
    const u64 published = 2 * (idx + 1);
    const u64 claimed = published - 1;
    u64 cur = slot.seq.load(std::memory_order_relaxed);
    if ((cur & 1) != 0 || cur >= claimed ||
        !slot.seq.compare_exchange_strong(cur, claimed,
                                          std::memory_order_acquire,
                                          std::memory_order_relaxed)) {
      // A wrap-around racer owns this slot (or already published a newer
      // record). Drop OUR event rather than tear THEIRS — recording stays
      // wait-free and no torn record can ever be exported.
      collisions_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    // The claim must be visible before any payload word: a snapshot that
    // observes one of our payload stores and re-checks seq (its acquire
    // fence pairs with this release fence) is then guaranteed to see the
    // claim and reject the torn record. A release CAS would NOT give this —
    // release orders prior writes, not the later payload stores.
    Policy::fence(std::memory_order_release);
    Policy::torn_copy(slot.ev, ev);
    slot.seq.store(published, std::memory_order_release);
  }

  /// Async span begin/end, matched by (cat, id, name).
  void begin(u32 track, const char* cat, const char* name, u64 id, TimeNs now,
             const char* arg_name = nullptr, i64 arg = 0) {
    record({name, cat, 'b', track, now, 0, id, arg_name, arg});
  }
  void end(u32 track, const char* cat, const char* name, u64 id, TimeNs now) {
    record({name, cat, 'e', track, now, 0, id, nullptr, 0});
  }
  /// Complete span: [start, start+dur] known at record time.
  void complete(u32 track, const char* cat, const char* name, u64 id,
                TimeNs start, DurNs dur, const char* arg_name = nullptr,
                i64 arg = 0) {
    record({name, cat, 'X', track, start, dur, id, arg_name, arg});
  }
  /// Zero-duration marker.
  void instant(u32 track, const char* cat, const char* name, u64 id,
               TimeNs now, const char* arg_name = nullptr, i64 arg = 0) {
    record({name, cat, 'i', track, now, 0, id, arg_name, arg});
  }

  /// Events recorded but overwritten by ring wrap-around.
  [[nodiscard]] u64 dropped() const {
    const u64 head = head_.load(std::memory_order_relaxed);
    const u64 cap = ring_.size();
    return head > cap ? head - cap : 0;
  }
  /// Events dropped because a wrap-around racer owned the slot (only
  /// possible when writers lap the ring concurrently).
  [[nodiscard]] u64 collision_drops() const {
    return collisions_.load(std::memory_order_relaxed);
  }
  /// Events currently held (min(recorded, capacity)), upper bound when
  /// writers are concurrently wrapping.
  [[nodiscard]] u64 size() const {
    const u64 head = head_.load(std::memory_order_relaxed);
    const u64 cap = ring_.size();
    return head > cap ? cap : head;
  }
  [[nodiscard]] size_t capacity() const { return ring_.size(); }

  /// Copy retained events oldest-first. Safe concurrently with record():
  /// slots that are mid-write or get overwritten during the copy fail the
  /// sequence re-check and are skipped.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const {
    return snapshot([](const TraceEvent&) { return true; });
  }

  /// snapshot() restricted to the events `keep` accepts — readers that want
  /// a small slice of the ring never copy the rest.
  template <typename Keep>
  [[nodiscard]] std::vector<TraceEvent> snapshot(const Keep& keep) const {
    const u64 head = head_.load(std::memory_order_acquire);
    const u64 cap = ring_.size();
    const u64 first = head > cap ? head - cap : 0;
    std::vector<TraceEvent> out;
    for (u64 i = first; i < head; ++i) {
      const Slot& slot = ring_[i % cap];
      const u64 want = 2 * (i + 1);
      if (slot.seq.load(std::memory_order_acquire) != want) continue;
      TraceEvent ev = Policy::torn_read(slot.ev);
      Policy::fence(std::memory_order_acquire);
      if (slot.seq.load(std::memory_order_relaxed) != want) continue;
      if (keep(ev)) out.push_back(ev);
    }
    return out;
  }

  /// Full Chrome trace_event JSON document (object form, with thread-name
  /// metadata so tracks render with their registered names). Deterministic
  /// for a given event sequence. `extra_other_data` entries are appended to
  /// the otherData object — oaf_perf uses this to embed the estimated
  /// initiator<->target clock offset so tools/oaf_trace_merge can correct
  /// target timestamps without a side channel.
  [[nodiscard]] std::string to_chrome_json(
      const std::vector<std::pair<std::string, i64>>& extra_other_data =
          {}) const {
    return to_chrome_json(snapshot(), extra_other_data);
  }

  /// The same document over a caller-chosen event list (a filtered
  /// snapshot), with this recorder's track names and drop count.
  [[nodiscard]] std::string to_chrome_json(
      const std::vector<TraceEvent>& events,
      const std::vector<std::pair<std::string, i64>>& extra_other_data =
          {}) const {
    std::vector<std::string> tracks;
    {
      typename Policy::lock lk(track_mu_);
      tracks = track_names_;
    }

    JsonWriter w;
    w.begin_object();
    w.key("displayTimeUnit").value("ns");
    w.key("traceEvents").begin_array();

    // Metadata first: one process, each track a named thread lane.
    w.begin_object();
    w.key("name").value("process_name");
    w.key("ph").value("M");
    w.key("pid").value(u64{1});
    w.key("tid").value(u64{0});
    w.key("args").begin_object().key("name").value("nvme-oaf").end_object();
    w.end_object();
    for (size_t i = 0; i < tracks.size(); ++i) {
      w.begin_object();
      w.key("name").value("thread_name");
      w.key("ph").value("M");
      w.key("pid").value(u64{1});
      w.key("tid").value(static_cast<u64>(i + 1));
      w.key("args").begin_object().key("name").value(tracks[i]).end_object();
      w.end_object();
    }

    for (const TraceEvent& ev : events) {
      if (ev.name == nullptr || ev.cat == nullptr) continue;  // blank slot
      w.begin_object();
      w.key("name").value(ev.name);
      w.key("cat").value(ev.cat);
      const char ph[2] = {ev.phase, '\0'};
      w.key("ph").value(static_cast<const char*>(ph));
      w.key("pid").value(u64{1});
      w.key("tid").value(static_cast<u64>(ev.track));
      std::string ts;
      detail::append_us(ts, ev.ts_ns);
      w.key("ts").raw(ts);
      if (ev.phase == 'X') {
        std::string dur;
        detail::append_us(dur, ev.dur_ns);
        w.key("dur").raw(dur);
      }
      if (ev.phase == 'b' || ev.phase == 'e') {
        char idbuf[32];
        std::snprintf(idbuf, sizeof(idbuf), "0x%llx",
                      static_cast<unsigned long long>(ev.id));
        w.key("id").value(static_cast<const char*>(idbuf));
      }
      if (ev.phase == 'i') {
        w.key("s").value("t");  // thread-scoped instant
      }
      if (ev.arg_name != nullptr) {
        w.key("args").begin_object().key(ev.arg_name).value(ev.arg)
            .end_object();
      } else if (ev.phase == 'b' || ev.phase == 'e') {
        // Async events require an args object in some viewers.
        w.key("args").begin_object().end_object();
      }
      w.end_object();
    }

    w.end_array();
    w.key("otherData").begin_object();
    w.key("dropped_events").value(dropped());
    for (const auto& [k, v] : extra_other_data) {
      w.key(k).value(v);
    }
    w.end_object();
    w.end_object();
    return w.take();
  }

  /// Write to_chrome_json() to `path`; returns false on I/O error.
  bool write_chrome_json(const std::string& path,
                         const std::vector<std::pair<std::string, i64>>&
                             extra_other_data = {}) const {
    const std::string doc = to_chrome_json(extra_other_data);
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const bool wrote = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
    const bool closed = std::fclose(f) == 0;
    return wrote && closed;
  }

  /// Drop all events and the drop counter; track registrations survive so
  /// cached track ids stay valid. Quiescent-point operation (unlike
  /// snapshot, reset must not race recording).
  void reset() {
    head_.store(0, std::memory_order_relaxed);
    collisions_.store(0, std::memory_order_relaxed);
    for (auto& slot : ring_) {
      slot.seq.store(0, std::memory_order_relaxed);
      slot.ev = TraceEvent{};
    }
  }

 private:
  struct Slot {
    Atomic<u64> seq{0};  // 2*(i+1)-1 while writing index i, 2*(i+1) published
    TraceEvent ev;
  };

  Atomic<bool> enabled_{false};
  Atomic<u64> head_{0};
  Atomic<u64> collisions_{0};
  std::vector<Slot> ring_;

  mutable typename Policy::mutex track_mu_;
  std::vector<std::string> track_names_ OAF_GUARDED_BY(track_mu_);
};

/// Production recorder (std::atomic policy).
using TraceRecorder = BasicTraceRecorder<StdAtomicsPolicy>;

extern template class BasicTraceRecorder<StdAtomicsPolicy>;

}  // namespace oaf::telemetry
