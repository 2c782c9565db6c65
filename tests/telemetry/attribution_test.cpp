// Attribution-plane unit tests: StageLedger accounting (including the
// finalize carve that subtracts remote residency from wire phases), the
// windowed histogram ring's rotation edges — empty windows, forward clock
// steps, wraparound — top-K eviction order, the SLO watchdog verdict, and
// the anomaly recorder's rate-limit gate / event filtering / capture file.
//
// All timestamps are synthetic: Attribution::record() takes `now`
// explicitly, so the edge cases need no executor.
#include "telemetry/attribution.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/json_parse.h"
#include "telemetry/anomaly.h"
#include "telemetry/telemetry.h"

namespace oaf::telemetry {
namespace {

constexpr DurNs kWin = 1'000'000'000;  // 1 s windows everywhere below

class AttributionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    AttributionOptions opts;
    opts.window_ns = kWin;
    opts.windows = 4;
    opts.top_k = 3;
    attribution().configure(opts);
    attribution().reset_for_test();
  }
  void TearDown() override {
    attribution().set_enabled(false);
    attribution().reset_for_test();
  }

  /// A minimal completed-read ledger: `total` ns, all in kGrant.
  static StageLedger grant_only(TimeNs start, i64 total) {
    StageLedger l;
    l.reset(start, Stage::kGrant);
    l.close(start + total);
    return l;
  }
};

// --- StageLedger ------------------------------------------------------------

TEST_F(AttributionTest, LedgerStagesSumToElapsed) {
  StageLedger l;
  l.reset(100);                     // kQueue opens at 100
  l.enter(Stage::kEncode, 150);     // queue += 50
  l.enter(Stage::kGrant, 180);      // encode += 30
  l.enter(Stage::kXfer, 400);       // grant += 220
  l.close(460);                     // xfer += 60
  EXPECT_EQ(l.stage_ns[static_cast<size_t>(Stage::kQueue)], 50);
  EXPECT_EQ(l.stage_ns[static_cast<size_t>(Stage::kEncode)], 30);
  EXPECT_EQ(l.stage_ns[static_cast<size_t>(Stage::kGrant)], 220);
  EXPECT_EQ(l.stage_ns[static_cast<size_t>(Stage::kXfer)], 60);
  EXPECT_EQ(l.total_ns(), 360);
  EXPECT_TRUE(l.was_touched(Stage::kQueue));
  EXPECT_FALSE(l.was_touched(Stage::kDevice));
}

TEST_F(AttributionTest, LedgerCreditDoesNotMoveTheCursor) {
  StageLedger l;
  l.reset(0, Stage::kGrant);
  l.credit(Stage::kDetour, 500);  // a retry gap, attributed mid-flight
  l.close(1000);
  EXPECT_EQ(l.stage_ns[static_cast<size_t>(Stage::kGrant)], 1000);
  EXPECT_EQ(l.stage_ns[static_cast<size_t>(Stage::kDetour)], 500);
}

TEST_F(AttributionTest, FinalizeCarvesRemoteResidencyOutOfTheOpenWireStage) {
  // A read: the whole round-trip (1000 ns) sat in kGrant, still open at
  // completion. The target reported 300 ns device + 100 ns processing; the
  // fabric keeps the remaining 600.
  StageLedger l;
  l.reset(0, Stage::kGrant);
  l.finalize(1000, /*device_ns=*/300, /*target_ns=*/100);
  EXPECT_EQ(l.stage_ns[static_cast<size_t>(Stage::kGrant)], 600);
  EXPECT_EQ(l.stage_ns[static_cast<size_t>(Stage::kDevice)], 300);
  EXPECT_EQ(l.stage_ns[static_cast<size_t>(Stage::kTarget)], 100);
  EXPECT_EQ(l.total_ns(), 1000);  // nothing double-counted
}

TEST_F(AttributionTest, FinalizeCarveOverflowsIntoGrantThenXfer) {
  // A write whose wire time split 100 grant / 200 xfer (open at finalize),
  // with 250 ns of remote residency: the carve drains the open stage (xfer)
  // first, then grant — and the device/target split is preserved.
  StageLedger l;
  l.reset(0, Stage::kGrant);
  l.enter(Stage::kXfer, 100);
  l.finalize(300, /*device_ns=*/225, /*target_ns=*/25);
  EXPECT_EQ(l.stage_ns[static_cast<size_t>(Stage::kXfer)], 0);
  EXPECT_EQ(l.stage_ns[static_cast<size_t>(Stage::kGrant)], 50);
  EXPECT_EQ(l.stage_ns[static_cast<size_t>(Stage::kDevice)], 225);
  EXPECT_EQ(l.stage_ns[static_cast<size_t>(Stage::kTarget)], 25);
  EXPECT_EQ(l.total_ns(), 300);
}

TEST_F(AttributionTest, FinalizeClampsWhenRemoteExceedsWireTime) {
  // A skewed target clock reports more residency than the round-trip took.
  // The carve clamps at the wire time — no stage goes negative, and only
  // the carved amount is credited remotely.
  StageLedger l;
  l.reset(0, Stage::kGrant);
  l.finalize(100, /*device_ns=*/500, /*target_ns=*/500);
  EXPECT_EQ(l.stage_ns[static_cast<size_t>(Stage::kGrant)], 0);
  EXPECT_EQ(l.stage_ns[static_cast<size_t>(Stage::kDevice)], 100);
  EXPECT_EQ(l.stage_ns[static_cast<size_t>(Stage::kTarget)], 0);
  EXPECT_EQ(l.total_ns(), 100);
}

TEST_F(AttributionTest, FinalizeIgnoresNegativeRemoteDurations) {
  StageLedger l;
  l.reset(0, Stage::kGrant);
  l.finalize(1000, -50, -20);
  EXPECT_EQ(l.stage_ns[static_cast<size_t>(Stage::kGrant)], 1000);
  EXPECT_FALSE(l.was_touched(Stage::kDevice));
}

// --- Windowed ring ----------------------------------------------------------

TEST_F(AttributionTest, RecordsLandInTheirWindow) {
  attribution().record(OpClass::kRead, grant_only(0, 500), 500, 1, 500);
  attribution().record(OpClass::kRead, grant_only(kWin, 700), 700, 2,
                       kWin + 700);
  const auto wins = attribution().snapshot_windows(kWin + 700);
  ASSERT_EQ(wins.size(), 2u);
  EXPECT_EQ(wins[0].index, 0u);
  EXPECT_EQ(wins[1].index, 1u);
  EXPECT_EQ(wins[0].classes[0].count(), 1u);
  EXPECT_EQ(wins[1].classes[0].count(), 1u);
}

TEST_F(AttributionTest, EmptyWindowsAreSkippedNotFabricated) {
  // I/Os in window 0 and window 2; window 1 saw nothing. The snapshot
  // reports exactly the two live windows — no zero-filled ghost between.
  attribution().record(OpClass::kRead, grant_only(0, 10), 10, 1, 10);
  attribution().record(OpClass::kRead, grant_only(2 * kWin, 10), 10, 2,
                       2 * kWin + 10);
  const auto wins = attribution().snapshot_windows(2 * kWin + 10);
  ASSERT_EQ(wins.size(), 2u);
  EXPECT_EQ(wins[0].index, 0u);
  EXPECT_EQ(wins[1].index, 2u);
}

TEST_F(AttributionTest, ForwardClockStepInvalidatesTheWholeRing) {
  // A jump far past the ring depth: every old slot is stale at the new
  // `now`; recording there retags cleanly and the old windows never leak
  // into the snapshot even though their slots still physically hold data.
  attribution().record(OpClass::kRead, grant_only(0, 10), 10, 1, 10);
  const TimeNs later = 1000 * kWin;
  attribution().record(OpClass::kWrite, grant_only(later, 20), 20, 2,
                       later + 20);
  const auto wins = attribution().snapshot_windows(later + 20);
  ASSERT_EQ(wins.size(), 1u);
  EXPECT_EQ(wins[0].index, 1000u);
  EXPECT_EQ(wins[0].classes[1].count(), 1u);
}

TEST_F(AttributionTest, WraparoundReusesSlotsForNewWindows) {
  // Ring depth 4: windows 0..5 walk through the ring half again. At the
  // end only the last 4 (2..5) are live; 0 and 1 were overwritten by their
  // modulo successors.
  for (u64 widx = 0; widx <= 5; ++widx) {
    const TimeNs t = static_cast<TimeNs>(widx) * kWin + 1;
    attribution().record(OpClass::kRead, grant_only(t, 100), 100,
                         /*trace_id=*/widx, t + 100);
  }
  const auto wins = attribution().snapshot_windows(5 * kWin + 200);
  ASSERT_EQ(wins.size(), 4u);
  for (size_t i = 0; i < wins.size(); ++i) {
    EXPECT_EQ(wins[i].index, 2 + i);
    EXPECT_EQ(wins[i].classes[0].count(), 1u);
  }
}

TEST_F(AttributionTest, StaleWindowBeyondDepthVanishesFromSnapshot) {
  attribution().record(OpClass::kRead, grant_only(0, 10), 10, 1, 10);
  // Nothing recorded since; `now` has moved past the ring's reach.
  const auto wins = attribution().snapshot_windows(10 * kWin);
  EXPECT_TRUE(wins.empty());
}

// --- Top-K ------------------------------------------------------------------

TEST_F(AttributionTest, TopKKeepsTheSlowestSortedAndEvictsTheFastest) {
  const i64 totals[] = {10, 50, 30, 40, 20};
  for (size_t i = 0; i < 5; ++i) {
    attribution().record(OpClass::kRead, grant_only(0, totals[i]), totals[i],
                         /*trace_id=*/100 + i, 500);
  }
  const auto wins = attribution().snapshot_windows(500);
  ASSERT_EQ(wins.size(), 1u);
  const auto& top = wins[0].top;
  ASSERT_EQ(top.size(), 3u);  // top_k = 3
  EXPECT_EQ(top[0].total_ns, 50);
  EXPECT_EQ(top[1].total_ns, 40);
  EXPECT_EQ(top[2].total_ns, 30);
  EXPECT_EQ(top[0].trace_id, 101u);
  EXPECT_EQ(top[1].trace_id, 103u);
  EXPECT_EQ(top[2].trace_id, 102u);
}

TEST_F(AttributionTest, TopKRejectsEntriesNoSlowerThanTheFloor) {
  for (i64 t : {30, 40, 50}) {
    attribution().record(OpClass::kRead, grant_only(0, t), t, 1, 100);
  }
  // 30 ties the current floor: rejected, the set is unchanged.
  attribution().record(OpClass::kRead, grant_only(0, 30), 30, 99, 100);
  const auto wins = attribution().snapshot_windows(100);
  ASSERT_EQ(wins.size(), 1u);
  ASSERT_EQ(wins[0].top.size(), 3u);
  EXPECT_NE(wins[0].top[2].trace_id, 99u);
}

TEST_F(AttributionTest, TopKResetsWithItsWindow) {
  attribution().record(OpClass::kRead, grant_only(0, 999), 999, 1, 100);
  attribution().record(OpClass::kRead, grant_only(kWin, 5), 5, 2, kWin + 50);
  const auto wins = attribution().snapshot_windows(kWin + 50);
  ASSERT_EQ(wins.size(), 2u);
  ASSERT_EQ(wins[1].top.size(), 1u);
  EXPECT_EQ(wins[1].top[0].total_ns, 5);  // the old 999 stayed in window 0
}

// --- SLO watchdog -----------------------------------------------------------

TEST_F(AttributionTest, BreachVerdictFollowsPerClassSlos) {
  AttributionOptions opts;
  opts.window_ns = kWin;
  opts.windows = 4;
  opts.slo_read_ns = 100;
  opts.slo_write_ns = 0;  // writes unbounded
  attribution().configure(opts);

  EXPECT_FALSE(
      attribution().record(OpClass::kRead, grant_only(0, 100), 100, 1, 100));
  EXPECT_TRUE(
      attribution().record(OpClass::kRead, grant_only(0, 101), 101, 2, 101));
  EXPECT_FALSE(
      attribution().record(OpClass::kWrite, grant_only(0, 9999), 9999, 3, 200));
  const auto wins = attribution().snapshot_windows(200);
  ASSERT_EQ(wins.size(), 1u);
  EXPECT_EQ(wins[0].breaches[0], 1u);  // reads
  EXPECT_EQ(wins[0].breaches[1], 0u);  // writes
}

TEST_F(AttributionTest, DisabledRecorderNeverBreaches) {
  AttributionOptions opts;
  opts.slo_read_ns = 1;
  attribution().configure(opts);
  attribution().set_enabled(false);
  EXPECT_FALSE(
      attribution().record(OpClass::kRead, grant_only(0, 1000), 1000, 1, 50));
  EXPECT_TRUE(attribution().snapshot_windows(50).empty());
}

TEST_F(AttributionTest, DetourRecordsIntoTheDetourStage) {
  attribution().record_detour(12345, 10);
  const auto wins = attribution().snapshot_windows(10);
  ASSERT_EQ(wins.size(), 1u);
  const auto& h = wins[0].stages[static_cast<size_t>(Stage::kDetour)];
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.max(), 12345);
}

TEST_F(AttributionTest, HeatAndTopJsonAreWellFormed) {
  attribution().record(OpClass::kRead, grant_only(0, 500), 500, 7, 500);
  auto heat = json_parse(attribution().heat_json(500));
  ASSERT_TRUE(heat) << heat.status().to_string();
  ASSERT_TRUE(heat.value()["windows"].is_array());
  auto top = json_parse(attribution().top_json(500));
  ASSERT_TRUE(top) << top.status().to_string();
  ASSERT_TRUE(top.value()["windows"].is_array());
}

// --- AnomalyRecorder --------------------------------------------------------

class AnomalyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    anomaly().reset_for_test();
    tracer().reset();  // the recorder reads the process's one ring
    dir_ = ::testing::TempDir() + "anomaly_test";
    std::remove((dir_ + "/oaf_anomaly_0.json").c_str());
    std::remove((dir_ + "/oaf_anomaly_1.json").c_str());
  }
  void TearDown() override { anomaly().reset_for_test(); }

  void arm(size_t max_captures = 8, DurNs min_interval = 1'000'000) {
    AnomalyOptions opts;
    opts.dir = dir_;
    opts.max_captures = max_captures;
    opts.min_interval_ns = min_interval;
    // gtest's TempDir always exists; the subdir might not. capture() itself
    // doesn't mkdir, so create it the portable-enough way.
    (void)std::system(("mkdir -p " + dir_).c_str());
    anomaly().configure(opts);
  }

  std::string dir_;
};

TEST_F(AnomalyTest, DisarmedRecorderNeverClaims) {
  EXPECT_EQ(anomaly().begin_capture(0), -1);
}

TEST_F(AnomalyTest, RateLimitGateSpacesClaims) {
  arm(/*max_captures=*/2, /*min_interval=*/1'000'000);
  EXPECT_EQ(anomaly().begin_capture(100), 0);
  EXPECT_EQ(anomaly().begin_capture(200), -1);  // inside the interval
  EXPECT_EQ(anomaly().begin_capture(100 + 1'000'000), 1);
  EXPECT_EQ(anomaly().begin_capture(100 + 3'000'000), -1);  // max_captures
}

TEST_F(AnomalyTest, EventsJsonFiltersByIdAndWindowAndAdjustsTimestamps) {
  const u32 t = tracer().track("test");
  tracer().begin(t, "io", "read", /*id=*/42, /*now=*/1000);
  tracer().instant(t, "io", "neighbor", /*id=*/7, /*now=*/1500);
  tracer().end(t, "io", "read", 42, 2000);
  tracer().instant(t, "io", "faraway", /*id=*/8, /*now=*/999'999);

  // id 42 matches outside the window; neighbor falls inside it; faraway is
  // neither and must be excluded. ts_adjust shifts everything by +10.
  const std::string json = anomaly().events_json(
      /*trace_id=*/42, /*from=*/1400, /*to=*/1600, /*ts_adjust=*/10, 64);
  auto doc = json_parse(json);
  ASSERT_TRUE(doc) << doc.status().to_string();
  const auto& arr = doc.value();
  ASSERT_TRUE(arr.is_array());
  ASSERT_EQ(arr.items().size(), 3u);
  EXPECT_EQ(arr.items()[0]["ts_ns"].as_i64(), 1010);
  EXPECT_EQ(arr.items()[1]["ts_ns"].as_i64(), 1510);
  EXPECT_EQ(arr.items()[2]["ts_ns"].as_i64(), 2010);
}

TEST_F(AnomalyTest, EventsJsonKeepsTheIosOwnEventsPastTheCap) {
  const u32 t = tracer().track("test");
  // A busy window: more neighbours than the cap, all recorded before the
  // breaching I/O's own begin/end.
  constexpr size_t kCap = 16;
  for (i64 i = 0; i < 2 * static_cast<i64>(kCap); ++i) {
    tracer().instant(t, "io", "neighbor", /*id=*/1000 + static_cast<u64>(i),
                     /*now=*/100 + i);
  }
  tracer().begin(t, "io", "read", /*id=*/42, /*now=*/200);
  tracer().end(t, "io", "read", 42, 300);

  const std::string json = anomaly().events_json(
      /*trace_id=*/42, /*from=*/0, /*to=*/1000, /*ts_adjust=*/0, kCap);
  auto doc = json_parse(json);
  ASSERT_TRUE(doc) << doc.status().to_string();
  const auto& arr = doc.value().items();
  ASSERT_EQ(arr.size(), kCap);
  // Both of the I/O's events made it, in ring order at the end...
  EXPECT_EQ(arr[kCap - 2]["id"].as_i64(), 42);
  EXPECT_EQ(arr[kCap - 1]["id"].as_i64(), 42);
  // ...and the neighbours that fill the rest are the newest ones, oldest
  // of them first.
  EXPECT_EQ(arr[0]["ts_ns"].as_i64(), 100 + 2 * static_cast<i64>(kCap) -
                                          static_cast<i64>(kCap - 2));
  EXPECT_EQ(arr[kCap - 3]["ts_ns"].as_i64(),
            100 + 2 * static_cast<i64>(kCap) - 1);
}

TEST_F(AnomalyTest, ClaimFillsTheContextFromTheLedger) {
  arm();
  StageLedger ledger;
  ledger.reset(5000, Stage::kGrant);
  ledger.close(9000);
  const auto ctx = anomaly().claim(/*trace_id=*/77, OpClass::kWrite,
                                   /*total_ns=*/4000, ledger, /*now=*/9000);
  ASSERT_TRUE(ctx.has_value());
  EXPECT_EQ(ctx->index, 0);
  EXPECT_EQ(ctx->trace_id, 77u);
  EXPECT_EQ(ctx->op, OpClass::kWrite);
  EXPECT_EQ(ctx->total_ns, 4000);
  EXPECT_EQ(ctx->slo_ns, attribution().slo_for(OpClass::kWrite));
  EXPECT_EQ(ctx->stage_ns[static_cast<size_t>(Stage::kGrant)], 4000);
  EXPECT_EQ(ctx->t_from_ns, 5000 - AnomalyRecorder::kPreRollNs);
  EXPECT_EQ(ctx->t_to_ns, 9000);
  // The claim went through the rate-limit gate like begin_capture().
  EXPECT_FALSE(anomaly().claim(78, OpClass::kRead, 1, ledger, 9001));
}

TEST_F(AnomalyTest, CaptureWritesBothHalvesAndTheLedger) {
  arm();
  const u32 t = tracer().track("capture-test");
  tracer().begin(t, "io", "read", /*id=*/77, /*now=*/5000);
  tracer().end(t, "io", "read", 77, 9000);

  const i64 idx = anomaly().begin_capture(10'000);
  ASSERT_EQ(idx, 0);
  AnomalyContext ctx;
  ctx.index = idx;
  ctx.trace_id = 77;
  ctx.op = OpClass::kRead;
  ctx.total_ns = 4000;
  ctx.slo_ns = 1000;
  ctx.stage_ns[static_cast<size_t>(Stage::kGrant)] = 4000;
  ctx.t_from_ns = 4000;
  ctx.t_to_ns = 10'000;
  ctx.clock_offset_ns = 12;
  ctx.remote_pid = 4242;
  ctx.remote_events_json = R"([{"ts_ns":6000,"ph":"i","name":"dev"}])";
  const std::string path = anomaly().capture(ctx);
  ASSERT_FALSE(path.empty());

  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string body(1 << 20, '\0');
  body.resize(std::fread(body.data(), 1, body.size(), f));
  std::fclose(f);

  auto doc = json_parse(body);
  ASSERT_TRUE(doc) << doc.status().to_string();
  const auto& root = doc.value();
  EXPECT_EQ(root["trace_id"].as_i64(), 77);
  EXPECT_EQ(root["slo_ns"].as_i64(), 1000);
  EXPECT_EQ(root["stages"]["grant"].as_i64(), 4000);
  EXPECT_EQ(root["remote"]["pid"].as_i64(), 4242);
  ASSERT_TRUE(root["remote"]["events"].is_array());
  EXPECT_EQ(root["remote"]["events"].items().size(), 1u);
  // The breaching I/O's own spans came out of the local ring.
  bool found = false;
  for (const auto& ev : root["local"]["events"].items()) {
    found |= ev["id"].as_i64() == 77;
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace oaf::telemetry
