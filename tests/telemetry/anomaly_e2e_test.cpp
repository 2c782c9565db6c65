// End-to-end retroactive anomaly capture: a real initiator + target pair
// under the sim clock, an SLO tight enough that an I/O breaches, and the
// full wire round-trip — breach verdict → begin_capture → AnomalyReq to the
// target → AnomalyResp with the peer's ring events → one durable
// oaf_anomaly_<n>.json holding BOTH halves keyed by the shared trace_id.
//
// Clean runs (no SLO, or watchdog disarmed) must write nothing, and a storm
// of breaches must still produce exactly one file (rate-limit gate).
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "af/locality.h"
#include "common/json_parse.h"
#include "net/pipe_channel.h"
#include "nvmf/initiator.h"
#include "nvmf/target.h"
#include "sim/scheduler.h"
#include "ssd/sim_device.h"
#include "telemetry/anomaly.h"
#include "telemetry/attribution.h"
#include "telemetry/telemetry.h"

namespace oaf::nvmf {
namespace {

struct Harness {
  // The functional-plane RealDevice completes in zero simulated time, which
  // would make every stage — and the end-to-end latency — zero, so no SLO
  // could ever breach. The timing-plane SimDevice moves the sim clock.
  static ssd::SimDeviceParams dev_params() {
    ssd::SimDeviceParams p;
    p.num_blocks = 1 << 18;
    p.jitter_frac = 0;  // deterministic latencies
    return p;
  }

  explicit Harness(af::AfConfig cfg)
      : broker(1), device(sched, dev_params()), subsystem("nqn") {
    (void)subsystem.add_namespace(1, &device);
    auto pair = net::make_pipe_channel_pair(sched, sched);
    client_ch = std::move(pair.first);
    target_ch = std::move(pair.second);
    TargetOptions topts{cfg, "anomcon"};
    // Both halves share this process's recorder; the target's residency
    // watchdog would otherwise breach first (at send_resp, before the host
    // ever sees the response) and steal the one rate-limited capture slot
    // from the host-driven two-sided capture under test.
    topts.capture_local_breaches = false;
    target = std::make_unique<NvmfTargetConnection>(sched, *target_ch, copier,
                                                    broker, subsystem, topts);
    InitiatorOptions iopts;
    iopts.af = cfg;
    iopts.queue_depth = 16;
    iopts.connection_name = "anomcon";
    initiator =
        std::make_unique<NvmfInitiator>(sched, *client_ch, copier, broker, iopts);
    initiator->connect([](Status) {});
    sched.run();
  }

  sim::Scheduler sched;
  net::InlineCopier copier;
  af::ShmBroker broker;
  ssd::SimDevice device;
  ssd::Subsystem subsystem;
  std::unique_ptr<net::MsgChannel> client_ch;
  std::unique_ptr<net::MsgChannel> target_ch;
  std::unique_ptr<NvmfTargetConnection> target;
  std::unique_ptr<NvmfInitiator> initiator;
};

class AnomalyE2ETest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per process: ctest -j runs these tests concurrently.
    dir_ = ::testing::TempDir() + "anomaly_e2e_" + std::to_string(::getpid());
    (void)std::system(("rm -rf " + dir_ + " && mkdir -p " + dir_).c_str());
    telemetry::attribution().reset_for_test();
    telemetry::anomaly().reset_for_test();
    // Captures read the process's one ring; start from this test's events.
    telemetry::tracer().reset();
  }
  void TearDown() override {
    telemetry::attribution().set_enabled(false);
    telemetry::attribution().reset_for_test();
    telemetry::anomaly().reset_for_test();
  }

  void arm_watchdog(DurNs slo_read_ns) {
    telemetry::AttributionOptions aopts;
    aopts.slo_read_ns = slo_read_ns;
    telemetry::attribution().configure(aopts);
  }
  void arm_capture() {
    telemetry::AnomalyOptions opts;
    opts.dir = dir_;
    telemetry::anomaly().configure(opts);
  }

  [[nodiscard]] int capture_count() const {
    int n = 0;
    for (int i = 0; i < 16; ++i) {
      const std::string p = dir_ + "/oaf_anomaly_" + std::to_string(i) + ".json";
      std::FILE* f = std::fopen(p.c_str(), "r");
      if (f != nullptr) {
        std::fclose(f);
        n++;
      }
    }
    return n;
  }

  [[nodiscard]] static std::string slurp(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (f == nullptr) return {};
    std::string body(1 << 20, '\0');
    body.resize(std::fread(body.data(), 1, body.size(), f));
    std::fclose(f);
    return body;
  }

  std::string dir_;
};

TEST_F(AnomalyE2ETest, BreachCapturesBothHalvesKeyedByTraceId) {
  arm_watchdog(/*slo_read_ns=*/1);  // every read breaches
  arm_capture();
  Harness h(af::AfConfig::oaf());
  ASSERT_TRUE(h.initiator->trace_ctx_active());

  std::vector<u8> out(64 * 1024);
  bool done = false;
  h.initiator->read(1, 0, out, [&](auto r) {
    EXPECT_TRUE(r.ok());
    done = true;
  });
  h.sched.run();
  ASSERT_TRUE(done);

  EXPECT_GE(telemetry::metrics().counter("oaf_slo_breaches_total", "")->value(),
            1)
      << "the read never breached: watchdog problem, not capture problem";
  ASSERT_EQ(capture_count(), 1);
  auto doc = json_parse(slurp(dir_ + "/oaf_anomaly_0.json"));
  ASSERT_TRUE(doc) << doc.status().to_string();
  const auto& root = doc.value();
  EXPECT_EQ(root["reason"].as_string(), "slo_breach");
  EXPECT_EQ(root["op"].as_string(), "read");
  EXPECT_GT(root["total_ns"].as_i64(), 1);
  EXPECT_EQ(root["slo_ns"].as_i64(), 1);

  const i64 trace_id = root["trace_id"].as_i64();
  ASSERT_GT(trace_id, 0);
  // Both processes here are this one, but the halves travelled the wire:
  // the remote side is stamped with the responding pid.
  EXPECT_EQ(root["local"]["pid"].as_i64(), static_cast<i64>(::getpid()));
  EXPECT_EQ(root["remote"]["pid"].as_i64(), static_cast<i64>(::getpid()));

  // The breaching I/O's span set appears on BOTH sides under one trace_id.
  auto has_trace_id = [&](const JsonValue& events) {
    if (!events.is_array()) return false;
    for (const auto& ev : events.items()) {
      if (ev["id"].as_i64() == trace_id) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_trace_id(root["local"]["events"]))
      << "local half lost the breaching I/O's spans";
  EXPECT_TRUE(has_trace_id(root["remote"]["events"]))
      << "remote half lost the breaching I/O's spans";

  // The attached heatmap shows the stage data that fingered the breach.
  EXPECT_TRUE(root["heat"]["windows"].is_array());
  // Stages were carved: device residency must not be zero for a real read.
  EXPECT_GT(root["stages"]["device"].as_i64(), 0);
}

TEST_F(AnomalyE2ETest, BreachStormStillWritesExactlyOneCapture) {
  arm_watchdog(1);
  arm_capture();
  Harness h(af::AfConfig::oaf());
  std::vector<u8> out(16 * 1024);
  int completed = 0;
  for (int i = 0; i < 32; ++i) {
    h.initiator->read(1, 0, out, [&](auto r) {
      EXPECT_TRUE(r.ok());
      completed++;
    });
    h.sched.run();
  }
  EXPECT_EQ(completed, 32);
  // 32 breaches, one claim: min_interval_ns (5 s) dwarfs the sim run.
  EXPECT_EQ(capture_count(), 1);
  EXPECT_GE(telemetry::metrics()
                .counter("oaf_slo_breaches_total", "")
                ->value(),
            32);
}

TEST_F(AnomalyE2ETest, CleanRunWritesNothing) {
  arm_watchdog(/*slo_read_ns=*/0);  // no SLO: nothing can breach
  arm_capture();
  Harness h(af::AfConfig::oaf());
  std::vector<u8> out(64 * 1024);
  bool done = false;
  h.initiator->read(1, 0, out, [&](auto r) {
    EXPECT_TRUE(r.ok());
    done = true;
  });
  h.sched.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(capture_count(), 0);
}

TEST_F(AnomalyE2ETest, BreachWithoutArmedCaptureWritesNothing) {
  arm_watchdog(1);  // breaches fire, but capture was never armed
  Harness h(af::AfConfig::oaf());
  std::vector<u8> out(64 * 1024);
  bool done = false;
  h.initiator->read(1, 0, out, [&](auto r) {
    EXPECT_TRUE(r.ok());
    done = true;
  });
  h.sched.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(capture_count(), 0);
}

TEST(AnomalyRecorderTest, ArmedPollsRaceConfigureWithoutTearing) {
  // Regression: armed() used to read armed_ without mu_ while configure()
  // and reset_for_test() write it from tool threads — a data race the
  // annotation pass (OAF_GUARDED_BY(mu_)) flagged. armed()/captures() now
  // lock; this drives the exact read-vs-write overlap under TSan and
  // checks the end state is coherent either way.
  telemetry::AnomalyRecorder rec;
  std::atomic<bool> done{false};
  std::atomic<u64> armed_seen{0};
  std::vector<std::thread> pollers;
  pollers.reserve(3);
  for (int p = 0; p < 3; ++p) {
    pollers.emplace_back([&rec, &done, &armed_seen] {
      while (!done.load(std::memory_order_acquire)) {
        if (rec.armed()) armed_seen.fetch_add(1, std::memory_order_relaxed);
        (void)rec.captures();
        (void)rec.options();
      }
    });
  }

  telemetry::AnomalyOptions opts;
  opts.dir = "/tmp";
  for (int cycle = 0; cycle < 500; ++cycle) {
    rec.configure(opts);   // arm
    rec.reset_for_test();  // disarm + forget history
  }
  rec.configure(opts);
  done.store(true, std::memory_order_release);
  for (auto& t : pollers) t.join();

  EXPECT_TRUE(rec.armed());  // last write wins, visible to everyone
  EXPECT_EQ(rec.captures(), 0u);
  EXPECT_EQ(rec.options().dir, "/tmp");
}

}  // namespace
}  // namespace oaf::nvmf
