// Flight recorder: a filtered reader of the process's one trace ring. Dump
// disarmed until install(); the dump keeps only the control-path categories
// (resilience, overload, multipath); and a fatal signal in an armed process
// leaves a parseable postmortem behind while the process still dies with the
// original signal.
#include "telemetry/flight.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "af/locality.h"
#include "common/json_parse.h"
#include "net/pipe_channel.h"
#include "nvmf/initiator.h"
#include "nvmf/target.h"
#include "sim/scheduler.h"
#include "ssd/real_device.h"
#include "telemetry/telemetry.h"

namespace oaf::telemetry {
namespace {

namespace fs = std::filesystem;

std::string make_temp_dir(const char* tag) {
  fs::path dir = fs::path(::testing::TempDir()) /
                 (std::string("oaf_flight_test_") + tag + "_" +
                  std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override { tracer().reset(); }
  void TearDown() override { tracer().set_enabled(false); }
};

TEST_F(FlightRecorderTest, DisarmedDumpWritesNothing) {
  tracer().instant(tracer().track("flight-test"), "resilience",
                   "deadline_fired", 7, 1000);
  FlightRecorder fr;
  EXPECT_FALSE(fr.armed());
  EXPECT_EQ(fr.dump_now("unit tests must not litter the filesystem"), "");
}

TEST_F(FlightRecorderTest, DumpWritesParseablePostmortem) {
  const std::string dir = make_temp_dir("dump");
  tracer().instant(tracer().track("flight-test"), "resilience", "abort_sent",
                   42, 2000, "cid", 7);
  FlightRecorder fr;
  fr.install({dir, /*fatal_signals=*/false});
  ASSERT_TRUE(fr.armed());

  const std::string path = fr.dump_now("injected fault");
  ASSERT_FALSE(path.empty());
  EXPECT_NE(path.find("oaf_flight_"), std::string::npos);
  EXPECT_EQ(path.find(dir), 0u);

  auto parsed = json_parse(slurp(path));
  ASSERT_TRUE(parsed) << parsed.status().to_string();
  const JsonValue& root = parsed.value();
  EXPECT_EQ(root["reason"].as_string(), "injected fault");
  EXPECT_EQ(root["pid"].as_i64(), static_cast<i64>(::getpid()));
  EXPECT_TRUE(root["metrics"].is_object());
  // The ring snapshot is embedded in Chrome trace form, Perfetto-loadable.
  bool saw_note = false;
  for (const auto& ev : root["trace"]["traceEvents"].items()) {
    saw_note |= ev["name"].as_string() == "abort_sent" &&
                ev["args"]["cid"].as_i64() == 7;
  }
  EXPECT_TRUE(saw_note);
}

// The dump's history is the shared ring's: its newest capacity() events of
// any kind, with the overwritten ones counted.
TEST_F(FlightRecorderTest, RingDropsOldestBeyondCapacity) {
  const std::string dir = make_temp_dir("drops");
  TraceRecorder& ring = tracer();
  const u32 lane = ring.track("flight-test");
  const u64 cap = ring.capacity();
  ring.instant(lane, "resilience", "oldest", 0, 0);
  for (u64 i = 0; i < cap + 4; ++i) {
    ring.instant(lane, "t", "e", i, static_cast<TimeNs>(i + 1));
  }
  ring.instant(lane, "resilience", "newest", 0, static_cast<TimeNs>(cap + 5));
  EXPECT_EQ(ring.dropped(), 6u);
  EXPECT_EQ(ring.size(), cap);

  FlightRecorder fr;
  fr.install({dir, /*fatal_signals=*/false});
  auto parsed = json_parse(slurp(fr.dump_now("drops")));
  ASSERT_TRUE(parsed) << parsed.status().to_string();
  const JsonValue& root = parsed.value();
  EXPECT_EQ(root["dropped_events"].as_i64(), 6);
  std::vector<std::string> names;
  for (const auto& ev : root["trace"]["traceEvents"].items()) {
    if (ev["ph"].as_string() != "M") names.push_back(ev["name"].as_string());
  }
  EXPECT_EQ(names, std::vector<std::string>{"newest"});
}

// A real engine pair: I/O (with detail events on) and then a demotion. The
// dump holds the demotion on the initiator's lane and none of the per-I/O
// spans the same ring carries.
TEST_F(FlightRecorderTest, DumpKeepsControlEventsAndDropsPerIoSpans) {
  const std::string dir = make_temp_dir("demote");
  tracer().set_enabled(true);
  sim::Scheduler sched;
  net::InlineCopier copier;
  af::ShmBroker broker(1);
  ssd::RealDevice device(sched, 512, 1 << 18);
  ssd::Subsystem subsystem("nqn");
  (void)subsystem.add_namespace(1, &device);
  auto [client_ch, target_ch] = net::make_pipe_channel_pair(sched, sched);
  const af::AfConfig cfg = af::AfConfig::oaf();
  nvmf::NvmfTargetConnection target(sched, *target_ch, copier, broker,
                                    subsystem, nvmf::TargetOptions{cfg, "fl"});
  nvmf::InitiatorOptions iopts;
  iopts.af = cfg;
  iopts.connection_name = "fl";
  nvmf::NvmfInitiator initiator(sched, *client_ch, copier, broker, iopts);
  initiator.connect([](Status) {});
  sched.run();

  std::vector<u8> data(64 * 1024, 0x3C);
  std::vector<u8> out(data.size());
  int done = 0;
  initiator.write(1, 0, data, [&](auto r) { done += r.ok() ? 1 : 0; });
  sched.run();
  initiator.read(1, 0, out, [&](auto r) { done += r.ok() ? 1 : 0; });
  sched.run();
  ASSERT_EQ(done, 2);
  initiator.demote_shm("flight test");
  sched.run();

  FlightRecorder fr;
  fr.install({dir, /*fatal_signals=*/false});
  auto parsed = json_parse(slurp(fr.dump_now("demoted")));
  ASSERT_TRUE(parsed) << parsed.status().to_string();
  const i64 init_lane = tracer().track("init:fl");
  bool saw_demote = false;
  for (const auto& ev : parsed.value()["trace"]["traceEvents"].items()) {
    const std::string& cat = ev["cat"].as_string();
    EXPECT_NE(cat, "init_io");
    EXPECT_NE(cat, "target_io");
    EXPECT_NE(cat, "shm");
    saw_demote |= cat == "resilience" && ev["name"].as_string() ==
                  "shm_demote" && ev["ph"].as_string() == "i" &&
                  ev["tid"].as_i64() == init_lane;
  }
  EXPECT_TRUE(saw_demote);
}

// End-to-end injected fault: the death-test child arms the GLOBAL recorder
// with fatal-signal hooks and aborts. The handler must dump the postmortem
// and re-raise, so the child still dies with SIGABRT (exit status intact for
// CI markers) while the parent finds the dump file.
TEST(FlightRecorderDeathTest, FatalSignalDumpsThenDies) {
  // The dump path allocates and is exercised from a real signal handler
  // here; run the death test in its own re-executed process so other tests'
  // threads cannot be mid-malloc at fork time.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  // The threadsafe child re-executes this test body with its own pid, so the
  // directory name must not embed the pid — both processes must agree on it.
  const std::string dir =
      (fs::path(::testing::TempDir()) / "oaf_flight_test_fatal").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  EXPECT_EXIT(
      {
        tracer().instant(tracer().track("flight-test"), "resilience",
                         "about_to_crash", 1, 123);
        flight().install({dir, /*fatal_signals=*/true});
        std::raise(SIGABRT);
      },
      ::testing::KilledBySignal(SIGABRT), "");

  fs::path dump;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("oaf_flight_", 0) == 0) dump = entry.path();
  }
  ASSERT_FALSE(dump.empty()) << "no oaf_flight_*.json written in " << dir;

  auto parsed = json_parse(slurp(dump));
  ASSERT_TRUE(parsed) << parsed.status().to_string();
  const JsonValue& root = parsed.value();
  EXPECT_FALSE(root["reason"].as_string().empty());
  bool saw_note = false;
  for (const auto& ev : root["trace"]["traceEvents"].items()) {
    saw_note |= ev["name"].as_string() == "about_to_crash";
  }
  EXPECT_TRUE(saw_note);
}

}  // namespace
}  // namespace oaf::telemetry
