// End-to-end trace: a co-located write/read through the real initiator +
// target engines under the sim clock lands initiator-side AND target-side
// spans on one timeline, detours (shm demotion, abort) show up as resilience
// events, and the exported Chrome JSON is deterministic run-to-run. With
// tracing off the always-on events still land, each exactly once.
//
// These tests use the process-global tracer the way production does; each
// test resets it, enables the detail events, and disables them on the way
// out.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "af/locality.h"
#include "common/json_parse.h"
#include "net/pipe_channel.h"
#include "nvmf/initiator.h"
#include "nvmf/target.h"
#include "sim/scheduler.h"
#include "ssd/real_device.h"
#include "telemetry/telemetry.h"

namespace oaf::nvmf {
namespace {

struct TraceHarness {
  explicit TraceHarness(af::AfConfig cfg)
      : broker(1), device(sched, 512, 1 << 18), subsystem("nqn") {
    (void)subsystem.add_namespace(1, &device);
    auto pair = net::make_pipe_channel_pair(sched, sched);
    client_ch = std::move(pair.first);
    target_ch = std::move(pair.second);
    TargetOptions topts{cfg, "tracee"};
    target = std::make_unique<NvmfTargetConnection>(sched, *target_ch, copier,
                                                    broker, subsystem, topts);
    InitiatorOptions iopts;
    iopts.af = cfg;
    iopts.queue_depth = 16;
    iopts.connection_name = "tracee";
    initiator =
        std::make_unique<NvmfInitiator>(sched, *client_ch, copier, broker, iopts);
    initiator->connect([](Status) {});
    sched.run();
  }

  sim::Scheduler sched;
  net::InlineCopier copier;
  af::ShmBroker broker;
  ssd::RealDevice device;
  ssd::Subsystem subsystem;
  std::unique_ptr<net::MsgChannel> client_ch;
  std::unique_ptr<net::MsgChannel> target_ch;
  std::unique_ptr<NvmfTargetConnection> target;
  std::unique_ptr<NvmfInitiator> initiator;
};

/// Distinct (category, name) pairs in the recorded stream.
std::set<std::pair<std::string, std::string>> distinct_spans(
    const std::vector<telemetry::TraceEvent>& evs) {
  std::set<std::pair<std::string, std::string>> out;
  for (const auto& ev : evs) {
    if (ev.name != nullptr && ev.cat != nullptr) out.emplace(ev.cat, ev.name);
  }
  return out;
}

class E2ETraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::tracer().reset();
    telemetry::tracer().set_enabled(true);
  }
  void TearDown() override { telemetry::tracer().set_enabled(false); }
};

TEST_F(E2ETraceTest, CoLocatedWriteSpansBothSidesOfTheTimeline) {
  TraceHarness h(af::AfConfig::oaf());
  std::vector<u8> data(128 * 1024, 0xA5);
  bool done = false;
  h.initiator->write(1, 0, data, [&](auto r) {
    EXPECT_TRUE(r.ok());
    done = true;
  });
  h.sched.run();
  ASSERT_TRUE(done);

  const auto evs = telemetry::tracer().snapshot();
  const auto spans = distinct_spans(evs);
  // One write crosses at least: the initiator command span + capsule-send
  // marker, the shm stage on the client, the target command span + device
  // span, and the shm consume on the target.
  EXPECT_GE(spans.size(), 6u) << "got " << spans.size() << " distinct spans";
  EXPECT_TRUE(spans.count({"init_io", "write"}));
  EXPECT_TRUE(spans.count({"target_io", "write"}));
  EXPECT_TRUE(spans.count({"target_io", "device"}));
  EXPECT_TRUE(spans.count({"shm", "shm_stage"}));
  EXPECT_TRUE(spans.count({"shm", "shm_consume"}));

  // Both engines' tracks carry events (one merged timeline, two lanes).
  const u32 init_lane = telemetry::tracer().track("init:tracee");
  const u32 target_lane = telemetry::tracer().track("target:tracee");
  bool saw_init = false;
  bool saw_target = false;
  for (const auto& ev : evs) {
    saw_init |= ev.track == init_lane;
    saw_target |= ev.track == target_lane;
  }
  EXPECT_TRUE(saw_init);
  EXPECT_TRUE(saw_target);

  // Every async begin has a matching end with the same (cat, id, name).
  for (const auto& ev : evs) {
    if (ev.phase != 'b') continue;
    bool matched = false;
    for (const auto& other : evs) {
      matched |= other.phase == 'e' && other.id == ev.id &&
                 std::string(other.cat) == ev.cat &&
                 std::string(other.name) == ev.name;
    }
    EXPECT_TRUE(matched) << "unmatched begin: " << ev.cat << "/" << ev.name;
  }
}

// The ring is always on: with the tracer disabled every always-on event of
// a write and a read lands exactly once (no site records twice), and the
// shm detail events appear only once tracing is enabled.
TEST_F(E2ETraceTest, AlwaysOnEventsLandOnceAndDetailWaitsForTracing) {
  telemetry::tracer().set_enabled(false);
  TraceHarness h(af::AfConfig::oaf());
  std::vector<u8> data(64 * 1024, 0x77);
  std::vector<u8> out(data.size());
  int done = 0;
  h.initiator->write(1, 0, data, [&](auto r) { done += r.ok() ? 1 : 0; });
  h.sched.run();
  h.initiator->read(1, 0, out, [&](auto r) { done += r.ok() ? 1 : 0; });
  h.sched.run();
  ASSERT_EQ(done, 2);

  const auto evs = telemetry::tracer().snapshot();
  std::set<std::tuple<std::string, std::string, u64, char, TimeNs>> seen;
  // (cat, id) -> "name/phase" -> count, per I/O attempt.
  std::map<std::pair<std::string, u64>, std::map<std::string, int>> per_io;
  for (const auto& ev : evs) {
    const std::string cat = ev.cat;
    const std::string name = ev.name;
    EXPECT_TRUE(seen.emplace(cat, name, ev.id, ev.phase, ev.ts_ns).second)
        << "recorded twice: " << cat << "/" << name;
    EXPECT_NE(cat, "shm") << "detail event with tracing off: " << name;
    if (cat == "init_io" || cat == "target_io") {
      // One capsule instant per attempt, whichever flow it announced.
      const std::string key = name.rfind("capsule_sent", 0) == 0
                                  ? std::string("capsule_sent")
                                  : name;
      per_io[{cat, ev.id}][key + "/" + ev.phase]++;
    }
  }
  const std::map<std::string, int> client_write = {
      {"write/b", 1}, {"capsule_sent/i", 1}, {"write/e", 1}};
  const std::map<std::string, int> client_read = {
      {"read/b", 1}, {"capsule_sent/i", 1}, {"read/e", 1}};
  const std::map<std::string, int> target_write = {
      {"write/b", 1}, {"device/b", 1}, {"device/e", 1}, {"write/e", 1}};
  const std::map<std::string, int> target_read = {
      {"read/b", 1}, {"device/b", 1}, {"device/e", 1}, {"read/e", 1}};
  int clients = 0;
  int targets = 0;
  for (const auto& [key, got] : per_io) {
    const bool client = key.first == "init_io";
    (client ? clients : targets)++;
    const bool write = got.count("write/b") != 0;
    EXPECT_EQ(got, client ? (write ? client_write : client_read)
                          : (write ? target_write : target_read))
        << key.first << " id " << key.second;
  }
  EXPECT_EQ(clients, 2);
  EXPECT_EQ(targets, 2);

  telemetry::tracer().set_enabled(true);
  h.initiator->write(1, 0, data, [&](auto r) { done += r.ok() ? 1 : 0; });
  h.sched.run();
  ASSERT_EQ(done, 3);
  const auto spans = distinct_spans(telemetry::tracer().snapshot());
  EXPECT_TRUE(spans.count({"shm", "shm_stage"}));
  EXPECT_TRUE(spans.count({"shm", "shm_consume"}));
}

TEST_F(E2ETraceTest, ShmDemotionDetourAppearsAsResilienceEvents) {
  TraceHarness h(af::AfConfig::oaf());
  std::vector<u8> data(64 * 1024);
  h.initiator->write(1, 0, data, [](auto r) { EXPECT_TRUE(r.ok()); });
  h.sched.run();

  h.initiator->demote_shm("test detour");
  h.sched.run();
  // Post-demotion traffic still completes (over TCP) and keeps tracing.
  bool done = false;
  h.initiator->write(1, 0, data, [&](auto r) {
    EXPECT_TRUE(r.ok());
    done = true;
  });
  h.sched.run();
  ASSERT_TRUE(done);

  const auto spans = distinct_spans(telemetry::tracer().snapshot());
  bool saw_resilience = false;
  for (const auto& [cat, name] : spans) saw_resilience |= cat == "resilience";
  EXPECT_TRUE(saw_resilience)
      << "demotion detour should emit resilience-category events";
}

TEST_F(E2ETraceTest, ChromeJsonIsDeterministicUnderSimClock) {
  auto one_run = [] {
    telemetry::tracer().reset();
    TraceHarness h(af::AfConfig::oaf());
    std::vector<u8> data(96 * 1024, 0x5A);
    h.initiator->write(1, 0, data, [](auto r) { EXPECT_TRUE(r.ok()); });
    h.sched.run();
    std::vector<u8> out(96 * 1024);
    h.initiator->read(1, 0, out, [](auto r) { EXPECT_TRUE(r.ok()); });
    h.sched.run();
    return telemetry::tracer().to_chrome_json();
  };
  const std::string first = one_run();
  const std::string second = one_run();
  EXPECT_GT(first.size(), 500u);
  EXPECT_EQ(first, second);
}

// Unit-suffix naming convention (DESIGN.md §9): counters end _total,
// histograms carry an explicit unit (_ns/_bytes), gauges never masquerade
// as counters. Audited against the live process registry after real engines
// have registered their instruments, so a new nonconforming registration
// anywhere in src/ fails here.
TEST_F(E2ETraceTest, MetricNamesFollowUnitSuffixConvention) {
  // Arm the attribution engine so its instruments (stage histograms, SLO
  // breach counters, anomaly capture counter) register and get audited too.
  telemetry::AttributionOptions aopts;
  aopts.slo_read_ns = 1;  // everything breaches: exercises the breach path
  aopts.slo_write_ns = 1;
  telemetry::attribution().configure(aopts);
  (void)telemetry::anomaly();  // registers oaf_anomaly_captures_total

  TraceHarness h(af::AfConfig::oaf());
  std::vector<u8> data(64 * 1024, 0x11);
  h.initiator->write(1, 0, data, [](auto r) { EXPECT_TRUE(r.ok()); });
  h.sched.run();
  telemetry::attribution().set_enabled(false);

  auto doc = json_parse(telemetry::metrics().to_json());
  ASSERT_TRUE(doc) << doc.status().to_string();
  const JsonValue& root = doc.value();
  ASSERT_FALSE(root["counters"].members().empty());
  // The new attribution-plane instruments must be live in this registry —
  // an audit that never sees them proves nothing about their names.
  EXPECT_TRUE(root["histograms"]["oaf_stage_grant_ns"].is_object());
  EXPECT_TRUE(root["histograms"]["oaf_stage_device_ns"].is_object());
  EXPECT_TRUE(root["counters"]["oaf_slo_breaches_total"].is_number());
  EXPECT_TRUE(root["counters"]["oaf_anomaly_captures_total"].is_number());
  EXPECT_TRUE(root["gauges"]["oaf_slo_last_window_breaches"].is_number());

  auto well_formed = [](const std::string& name) {
    if (name.rfind("oaf_", 0) != 0) return false;
    for (const char c : name) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                      c == '_';
      if (!ok) return false;
    }
    return true;
  };
  for (const auto& member : root["counters"].members()) {
    EXPECT_TRUE(well_formed(member.first)) << member.first;
    EXPECT_TRUE(member.first.ends_with("_total"))
        << "counter " << member.first << " must end in _total";
  }
  for (const auto& member : root["histograms"].members()) {
    EXPECT_TRUE(well_formed(member.first)) << member.first;
    EXPECT_TRUE(member.first.ends_with("_ns") ||
                member.first.ends_with("_bytes"))
        << "histogram " << member.first
        << " needs an explicit unit suffix (_ns or _bytes)";
  }
  for (const auto& member : root["gauges"].members()) {
    EXPECT_TRUE(well_formed(member.first)) << member.first;
    EXPECT_FALSE(member.first.ends_with("_total"))
        << "gauge " << member.first << " must not masquerade as a counter";
  }
}

}  // namespace
}  // namespace oaf::nvmf
