// Model-checked invariants of the telemetry trace ring — the production
// BasicTraceRecorder over chk::CheckedPolicy. The ring's contract is that
// snapshot() may run concurrently with record() and must never return a torn
// record: every event it yields is bytewise one that some writer actually
// recorded. The per-slot seqlock (claim CAS -> release fence -> payload ->
// publish store) is exactly the protocol under test; the payload copy goes
// through Policy::torn_copy / torn_read, so the checker models stale and
// interleaved word reads the way weakly-ordered hardware would produce them.
//
// REGRESSION anchor: without the release fence after the claim CAS the
// payload words can become visible before the claim, and a snapshot that
// re-validates seq can still accept a half-overwritten record. The planted
// fence-less variant in chk_meta_test.cpp fails; the real recorder here must
// pass exhaustively.
#include <gtest/gtest.h>

#include "chk/check.h"
#include "chk/policy.h"
#include "telemetry/trace.h"

namespace oaf::telemetry {
namespace {

using oaf::chk::RunResult;
using Recorder = BasicTraceRecorder<oaf::chk::CheckedPolicy>;

// Two fully distinct template events: every word differs, so any mix of A
// and B words in a snapshotted record is detectable field-by-field.
TraceEvent event_a() {
  TraceEvent ev;
  ev.name = "alpha";
  ev.cat = "io";
  ev.phase = 'b';
  ev.track = 1;
  ev.ts_ns = 1111;
  ev.dur_ns = 11;
  ev.id = 0xAAAA;
  ev.arg_name = "qd";
  ev.arg = 17;
  return ev;
}
TraceEvent event_b() {
  TraceEvent ev;
  ev.name = "bravo";
  ev.cat = "net";
  ev.phase = 'e';
  ev.track = 2;
  ev.ts_ns = 2222;
  ev.dur_ns = 22;
  ev.id = 0xBBBB;
  ev.arg_name = "lat";
  ev.arg = 34;
  return ev;
}
bool same_event(const TraceEvent& x, const TraceEvent& y) {
  return x.name == y.name && x.cat == y.cat && x.phase == y.phase &&
         x.track == y.track && x.ts_ns == y.ts_ns && x.dur_ns == y.dur_ns &&
         x.id == y.id && x.arg_name == y.arg_name && x.arg == y.arg;
}
void assert_untorn(const TraceEvent& ev) {
  CHK_ASSERT(same_event(ev, event_a()) || same_event(ev, event_b()),
             "snapshot returned a torn trace record");
}

// Writer overwrites the ring's single (pre-filled) slot while a reader
// snapshots: the reader gets old record, new record, or nothing — never a
// mix. Exhaustive: the 9-word payload copy is the interesting interleaving
// surface and two threads keep it tractable.
struct OverwriteVsSnapshotModel {
  static constexpr u32 kThreads = 2;

  Recorder rec{1};  // capacity 1: every record overwrites the same slot

  OverwriteVsSnapshotModel() {
    rec.record(event_a());  // slot published with A before the race starts
  }

  void thread(u32 t) {
    if (t == 0) {
      rec.record(event_b());
    } else {
      for (const TraceEvent& ev : rec.snapshot()) assert_untorn(ev);
    }
  }
  void finish() {
    // Quiescent: the winning writer's record (or the original) is intact.
    const std::vector<TraceEvent> events = rec.snapshot();
    CHK_ASSERT(events.size() == 1, "quiescent snapshot lost the record");
    assert_untorn(events[0]);
    CHK_ASSERT(rec.dropped() == 1, "overwrite not counted as dropped");
  }
};

TEST(ChkTraceRing, OverwriteVsSnapshotNeverTorn) {
  const RunResult r = oaf::chk::check<OverwriteVsSnapshotModel>();
  EXPECT_TRUE(r.ok) << r.report();
  EXPECT_TRUE(r.exhausted);
}

// Two writers race the same slot (head collision at wrap) while a reader
// snapshots. The slow loser must drop wait-free (collision_drops), never
// scribble over the winner. Three threads x 9-word payloads: sampled with
// seeded random schedules instead of exhaustive DFS.
struct WriterRaceModel {
  static constexpr u32 kThreads = 3;

  Recorder rec{1};

  void thread(u32 t) {
    if (t == 0) {
      rec.record(event_a());
    } else if (t == 1) {
      rec.record(event_b());
    } else {
      for (const TraceEvent& ev : rec.snapshot()) assert_untorn(ev);
    }
  }
  void finish() {
    const std::vector<TraceEvent> events = rec.snapshot();
    for (const TraceEvent& ev : events) assert_untorn(ev);
    const u64 kept = events.size();
    CHK_ASSERT(kept <= 1, "capacity-1 ring retained two records");
    CHK_ASSERT(rec.collision_drops() <= 1, "both writers collided");
    // If nobody collided, both writers published and the newest record must
    // be retained; a collision may additionally have emptied the ring.
    CHK_ASSERT(kept + rec.collision_drops() >= 1,
               "trace-ring accounting lost both records");
    CHK_ASSERT(rec.dropped() == 1, "positional drop count wrong");
  }
};

TEST(ChkTraceRing, WriterCollisionDropsWaitFree) {
  oaf::chk::Options opts;
  opts.random_executions = 4000;
  opts.seed = 20260807;
  const RunResult r = oaf::chk::check<WriterRaceModel>(opts);
  EXPECT_TRUE(r.ok) << r.report();
  EXPECT_EQ(r.executions, 4000u);
}

}  // namespace
}  // namespace oaf::telemetry
