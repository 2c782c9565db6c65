// Trace stitching: two single-process Chrome trace documents (initiator +
// target) merge into one timeline with the target's clock corrected by the
// NTP-style offset the initiator embedded, and both sides of an I/O linked
// by the shared async id. The merged output is byte-deterministic and
// golden-file tested; regenerate the golden with
//   OAF_UPDATE_GOLDEN=1 ctest -R TraceMerge
#include "telemetry/trace_merge.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "common/json_parse.h"
#include "telemetry/trace.h"

namespace oaf::telemetry {
namespace {

// A miniature session standing in for real loopback traces: the initiator
// issues write 0x10; the target (whose clock runs 250ns AHEAD of the
// initiator's) serves it. 0x10 is the wire trace id both sides tagged their
// spans with, and 250 is the clock offset oaf_perf embeds in otherData.
std::pair<std::string, std::string> make_inputs() {
  TraceRecorder init(64);
  const u32 lane = init.track("init:conn0");
  init.begin(lane, "init_io", "write", 0x10, 1000, "bytes", 4096);
  init.instant(lane, "init_io", "r2t_received", 0x10, 2000);
  init.end(lane, "init_io", "write", 0x10, 5000);

  TraceRecorder target(64);
  const u32 tlane = target.track("target:conn0");
  target.begin(tlane, "target_io", "write", 0x10, 1400);
  target.complete(tlane, "target_io", "device", 0x10, 1600, 2600, "bytes",
                  4096);
  target.end(tlane, "target_io", "write", 0x10, 4600);

  return {init.to_chrome_json({{"clock_offset_ns", 250}}),
          target.to_chrome_json()};
}

/// ts/dur are microseconds with fixed 3-decimal ns precision; recover ns.
i64 ts_ns(const JsonValue& ev) {
  return static_cast<i64>(std::llround(ev["ts"].as_double() * 1000.0));
}

/// First event with this name/phase under the given pid (0 = any pid).
const JsonValue* find_event(const JsonValue& root, const std::string& name,
                            const std::string& ph, i64 pid = 0) {
  for (const auto& ev : root["traceEvents"].items()) {
    if (ev["name"].as_string() == name && ev["ph"].as_string() == ph &&
        (pid == 0 || ev["pid"].as_i64() == pid)) {
      return &ev;
    }
  }
  return nullptr;
}

TEST(TraceMergeTest, MergesAndCorrectsTargetClock) {
  auto [init_json, target_json] = make_inputs();
  auto merged = merge_chrome_traces(init_json, target_json);
  ASSERT_TRUE(merged) << merged.status().to_string();
  auto parsed = json_parse(merged.value());
  ASSERT_TRUE(parsed) << parsed.status().to_string();
  const JsonValue& root = parsed.value();

  // Both processes present, renamed, on distinct pids.
  bool saw_init_proc = false;
  bool saw_target_proc = false;
  for (const auto& ev : root["traceEvents"].items()) {
    if (ev["name"].as_string() != "process_name") continue;
    const std::string pname = ev["args"]["name"].as_string();
    saw_init_proc |= ev["pid"].as_i64() == 1 && pname == "oaf-initiator";
    saw_target_proc |= ev["pid"].as_i64() == 2 && pname == "oaf-target";
  }
  EXPECT_TRUE(saw_init_proc);
  EXPECT_TRUE(saw_target_proc);

  // Initiator timestamps are untouched; target timestamps are re-homed onto
  // the initiator clock: t_init = t_target - offset (1400 - 250 = 1150).
  const JsonValue* iw = find_event(root, "write", "b", 1);
  ASSERT_NE(iw, nullptr);
  EXPECT_EQ(ts_ns(*iw), 1000);
  const JsonValue* tw = find_event(root, "write", "b", 2);
  ASSERT_NE(tw, nullptr);
  EXPECT_EQ(ts_ns(*tw), 1150);
  const JsonValue* dev = find_event(root, "device", "X", 2);
  ASSERT_NE(dev, nullptr);
  EXPECT_EQ(ts_ns(*dev), 1350);
  EXPECT_EQ(static_cast<i64>(std::llround((*dev)["dur"].as_double() * 1000.0)),
            2600);

  // The two sides of the I/O share the async id (the wire trace id), so
  // id-based queries link them across processes.
  EXPECT_EQ((*iw)["id"].as_string(), "0x10");
  EXPECT_EQ((*tw)["id"].as_string(), "0x10");

  // Provenance survives in otherData.
  EXPECT_EQ(root["otherData"]["clock_offset_ns"].as_i64(), 250);
  EXPECT_EQ(root["otherData"]["initiator_dropped_events"].as_i64(), 0);
  EXPECT_EQ(root["otherData"]["target_dropped_events"].as_i64(), 0);
}

TEST(TraceMergeTest, OffsetOverrideWinsOverEmbeddedOffset) {
  auto [init_json, target_json] = make_inputs();
  TraceMergeOptions opts;
  opts.has_offset_override = true;
  opts.offset_ns_override = 400;
  auto merged = merge_chrome_traces(init_json, target_json, opts);
  ASSERT_TRUE(merged) << merged.status().to_string();
  auto parsed = json_parse(merged.value());
  ASSERT_TRUE(parsed);
  const JsonValue* tw = find_event(parsed.value(), "write", "b", 2);
  ASSERT_NE(tw, nullptr);
  EXPECT_EQ(ts_ns(*tw), 1000);  // 1400 - 400
  EXPECT_EQ(parsed.value()["otherData"]["clock_offset_ns"].as_i64(), 400);
}

TEST(TraceMergeTest, MissingOffsetDefaultsToZeroShift) {
  // An initiator document without clock_offset_ns (e.g. trace_ctx refused by
  // an old peer): target events merge unshifted rather than failing.
  TraceRecorder init(8);
  init.instant(init.track("init:conn0"), "init_io", "submit", 1, 500);
  TraceRecorder target(8);
  target.instant(target.track("target:conn0"), "target_io", "served", 1, 900);
  auto merged = merge_chrome_traces(init.to_chrome_json(),
                                    target.to_chrome_json());
  ASSERT_TRUE(merged) << merged.status().to_string();
  auto parsed = json_parse(merged.value());
  ASSERT_TRUE(parsed);
  const JsonValue* ev = find_event(parsed.value(), "served", "i", 2);
  ASSERT_NE(ev, nullptr);
  EXPECT_EQ(ts_ns(*ev), 900);
  EXPECT_EQ(parsed.value()["otherData"]["clock_offset_ns"].as_i64(), 0);
}

TEST(TraceMergeTest, RejectsMalformedInput) {
  TraceRecorder ok(8);
  const std::string good = ok.to_chrome_json();
  EXPECT_FALSE(merge_chrome_traces("not json", good));
  EXPECT_FALSE(merge_chrome_traces(good, "{\"traceEvents\": 3}"));
  EXPECT_FALSE(merge_chrome_traces(good, "[1, 2]"));
}

TEST(TraceMergeTest, GoldenFileByteStable) {
  auto [init_json, target_json] = make_inputs();
  auto merged = merge_chrome_traces(init_json, target_json);
  ASSERT_TRUE(merged) << merged.status().to_string();

  const std::string golden_path =
      std::string(OAF_TESTDATA_DIR) + "/trace_merge_golden.json";
  if (std::getenv("OAF_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::binary);
    ASSERT_TRUE(out.is_open()) << "cannot write " << golden_path;
    out << merged.value();
    GTEST_SKIP() << "golden regenerated: " << golden_path;
  }

  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in.is_open())
      << "missing " << golden_path
      << " — regenerate with OAF_UPDATE_GOLDEN=1 ctest -R TraceMerge";
  std::ostringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(merged.value(), ss.str())
      << "merged trace output drifted from the committed golden; if the "
         "change is intentional, regenerate with OAF_UPDATE_GOLDEN=1";
}

}  // namespace
}  // namespace oaf::telemetry
