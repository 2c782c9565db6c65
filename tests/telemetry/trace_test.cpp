// TraceRecorder: unconditional recording, span lifecycle phases, bounded-ring
// overflow (drops oldest, counts drops), and byte-exact Chrome trace JSON.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "telemetry/trace.h"

namespace oaf::telemetry {
namespace {

// enabled() is a hint for detail-event call sites; the ring itself records
// every event either way, so the always-on events survive tracing off.
TEST(TraceRecorderTest, DisabledByDefaultStillRecords) {
  TraceRecorder rec(16);
  EXPECT_FALSE(rec.enabled());
  rec.instant(0, "cat", "ev", 0, 100);
  EXPECT_EQ(rec.size(), 1u);
  rec.set_enabled(true);
  EXPECT_TRUE(rec.enabled());
  rec.instant(0, "cat", "ev", 0, 200);
  EXPECT_EQ(rec.size(), 2u);
}

TEST(TraceRecorderTest, SpanLifecyclePhasesRoundTrip) {
  TraceRecorder rec(16);
  const u32 lane = rec.track("lane");
  rec.begin(lane, "io", "write", 42, 1000, "bytes", 4096);
  rec.complete(lane, "shm", "stage", 3, 1200, 500, "bytes", 512);
  rec.instant(lane, "resilience", "retry", 42, 1600);
  rec.end(lane, "io", "write", 42, 2000);
  const auto evs = rec.snapshot();
  ASSERT_EQ(evs.size(), 4u);
  EXPECT_EQ(evs[0].phase, 'b');
  EXPECT_STREQ(evs[0].name, "write");
  EXPECT_EQ(evs[0].id, 42u);
  EXPECT_STREQ(evs[0].arg_name, "bytes");
  EXPECT_EQ(evs[0].arg, 4096);
  EXPECT_EQ(evs[1].phase, 'X');
  EXPECT_EQ(evs[1].ts_ns, 1200);
  EXPECT_EQ(evs[1].dur_ns, 500);
  EXPECT_EQ(evs[2].phase, 'i');
  EXPECT_EQ(evs[3].phase, 'e');
  // The begin/end pair matches by (cat, id, name).
  EXPECT_STREQ(evs[3].cat, evs[0].cat);
  EXPECT_EQ(evs[3].id, evs[0].id);
  EXPECT_STREQ(evs[3].name, evs[0].name);
}

TEST(TraceRecorderTest, RingOverflowDropsOldestAndCounts) {
  TraceRecorder rec(4);
  for (u64 i = 0; i < 10; ++i) {
    rec.instant(0, "cat", "ev", i, static_cast<TimeNs>(i * 100));
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.dropped(), 6u);
  const auto evs = rec.snapshot();
  ASSERT_EQ(evs.size(), 4u);
  // Oldest-first snapshot of the newest four events.
  for (u64 i = 0; i < 4; ++i) EXPECT_EQ(evs[i].id, 6 + i);
  // The drop count is reported in the exported document.
  EXPECT_NE(rec.to_chrome_json().find("\"dropped_events\":6"),
            std::string::npos);
}

TEST(TraceRecorderTest, TrackIsFindOrCreate) {
  TraceRecorder rec(4);
  const u32 a = rec.track("alpha");
  const u32 b = rec.track("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(rec.track("alpha"), a);
  EXPECT_EQ(rec.track("beta"), b);
}

TEST(TraceRecorderTest, ResetClearsEventsButKeepsTracks) {
  TraceRecorder rec(4);
  const u32 lane = rec.track("lane");
  for (u64 i = 0; i < 6; ++i) rec.instant(lane, "c", "e", i, 0);
  rec.reset();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.dropped(), 0u);
  EXPECT_EQ(rec.track("lane"), lane);
}

// Golden-file test: the exporter's output is byte-stable for a fixed event
// sequence. If this breaks, every archived trace diff becomes noise — bump
// deliberately.
TEST(TraceRecorderTest, ChromeJsonMatchesGolden) {
  TraceRecorder rec(8);
  const u32 lane = rec.track("lane");
  ASSERT_EQ(lane, 1u);
  rec.begin(lane, "io", "write", 7, 1500, "bytes", 4096);
  rec.complete(lane, "shm", "stage", 2, 2000, 750, "bytes", 512);
  rec.end(lane, "io", "write", 7, 3500);
  rec.instant(lane, "resilience", "retry", 0, 4000);
  const std::string expected =
      "{\"displayTimeUnit\":\"ns\",\"traceEvents\":["
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"nvme-oaf\"}},"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
      "\"args\":{\"name\":\"lane\"}},"
      "{\"name\":\"write\",\"cat\":\"io\",\"ph\":\"b\",\"pid\":1,\"tid\":1,"
      "\"ts\":1.500,\"id\":\"0x7\",\"args\":{\"bytes\":4096}},"
      "{\"name\":\"stage\",\"cat\":\"shm\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
      "\"ts\":2.000,\"dur\":0.750,\"args\":{\"bytes\":512}},"
      "{\"name\":\"write\",\"cat\":\"io\",\"ph\":\"e\",\"pid\":1,\"tid\":1,"
      "\"ts\":3.500,\"id\":\"0x7\",\"args\":{}},"
      "{\"name\":\"retry\",\"cat\":\"resilience\",\"ph\":\"i\",\"pid\":1,"
      "\"tid\":1,\"ts\":4.000,\"s\":\"t\"}"
      "],\"otherData\":{\"dropped_events\":0}}";
  EXPECT_EQ(rec.to_chrome_json(), expected);
}

TEST(TraceRecorderTest, WriteChromeJsonRoundTrips) {
  TraceRecorder rec(8);
  rec.instant(rec.track("lane"), "c", "e", 1, 100);
  const std::string path = testing::TempDir() + "oaf_trace_test.json";
  ASSERT_TRUE(rec.write_chrome_json(path));
  FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string got;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) got.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(got, rec.to_chrome_json());
}

}  // namespace
}  // namespace oaf::telemetry
