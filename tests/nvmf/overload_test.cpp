// Overload robustness (DESIGN.md §12): the target must bound its resources
// under offered load far beyond its budgets — rejecting the excess with
// retryable kQueueFull instead of queuing without limit — and the initiator
// must absorb that backpressure with jittered backoff so every I/O still
// completes exactly once. Connect-time admission control turns away clients
// past the connection cap with an explicit ICResp verdict, and slow clients
// are evicted so their budget charges return to the pool.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "af/locality.h"
#include "net/fault_channel.h"
#include "net/pipe_channel.h"
#include "nvmf/initiator.h"
#include "nvmf/target_service.h"
#include "sim/scheduler.h"
#include "ssd/real_device.h"

namespace oaf::nvmf {
namespace {

InitiatorOptions storm_opts(const std::string& name, u32 qd) {
  InitiatorOptions iopts{af::AfConfig::stock_tcp(), qd, name, 0, {}};
  // A storm produces many kQueueFull rounds per command; give the in-place
  // retry ladder room so backpressure never turns into an app-visible error.
  iopts.recovery.max_command_retries = 64;
  return iopts;
}

/// One or more initiators dialing a NvmfTargetService with overload budgets
/// over FaultChannel-wrapped pipe pairs.
struct OverloadHarness {
  explicit OverloadHarness(TargetServiceOptions sopts)
      : broker(1), device(sched, 512, 1 << 18), subsystem("nqn.overload") {
    (void)subsystem.add_namespace(1, &device);
    sopts.af = af::AfConfig::oaf();
    service = std::make_unique<NvmfTargetService>(sched, copier, broker,
                                                  subsystem, sopts);
  }

  NvmfInitiator* add_initiator(InitiatorOptions iopts) {
    const std::string name = iopts.connection_name;
    initiators.push_back(std::make_unique<NvmfInitiator>(
        sched, [this, name] { return dial(name); }, copier, broker, iopts));
    return initiators.back().get();
  }

  std::unique_ptr<net::MsgChannel> dial(const std::string& name) {
    dials++;
    net::FaultPolicy p;
    p.seed = 7 + static_cast<u64>(dials) * 1000;
    auto [c, t] =
        net::wrap_fault_pair(net::make_pipe_channel_pair(sched, sched), p);
    client_ch = c.get();
    target_ch = t.get();
    service->accept(std::move(t), name);
    return std::move(c);
  }

  sim::Scheduler sched;
  net::InlineCopier copier;
  af::ShmBroker broker;
  ssd::RealDevice device;
  ssd::Subsystem subsystem;
  std::unique_ptr<NvmfTargetService> service;
  std::vector<std::unique_ptr<NvmfInitiator>> initiators;
  net::FaultChannel* client_ch = nullptr;  // most recent dial's endpoints
  net::FaultChannel* target_ch = nullptr;
  int dials = 0;
};

TEST(OverloadTest, QueueFullStormCompletesEverythingExactlyOnce) {
  // Per-connection in-flight cap of 4 against queue depth 16: most of the
  // storm bounces with kQueueFull, backs off, and replays until the target
  // has room. Nothing fails, nothing completes twice.
  TargetServiceOptions sopts;
  sopts.max_inflight_cmds = 4;
  OverloadHarness h(sopts);
  NvmfInitiator* init = h.add_initiator(storm_opts("storm", 16));
  init->connect([](Status) {});
  h.sched.run();
  ASSERT_TRUE(init->connected());

  std::vector<u8> data(4096, 0x5A);
  std::vector<int> fires(40, 0);
  int ok = 0;
  int failed = 0;
  for (size_t i = 0; i < fires.size(); ++i) {
    init->write(1, static_cast<u64>(i) * 8, data,
                [&, i](NvmfInitiator::IoResult r) {
                  fires[i]++;
                  (r.ok() ? ok : failed)++;
                });
  }
  h.sched.run();

  EXPECT_EQ(ok, 40);
  EXPECT_EQ(failed, 0);
  for (const int f : fires) EXPECT_EQ(f, 1);
  NvmfTargetConnection* conn = h.service->find("storm");
  ASSERT_NE(conn, nullptr);
  EXPECT_GT(conn->queue_full_rejects(), 0u);
  EXPECT_GT(init->resilience().queue_full_received, 0u);
  EXPECT_GT(init->resilience().queue_full_retries, 0u);
  // The storm drained: no residual in-flight state or staging charge.
  EXPECT_EQ(conn->inflight_now(), 0u);
  EXPECT_EQ(conn->staging_bytes(), 0u);
}

TEST(OverloadTest, GlobalStagingBudgetIsNeverExceededAndFullyReleased) {
  // A target-wide staging budget of two 4 KiB commands: the budget's peak
  // may never exceed capacity no matter how hard the client pushes, and
  // every charge comes back once the storm drains.
  TargetServiceOptions sopts;
  sopts.global_staging_bytes = 2 * 4096;
  OverloadHarness h(sopts);
  NvmfInitiator* init = h.add_initiator(storm_opts("budget", 8));
  init->connect([](Status) {});
  h.sched.run();
  ASSERT_TRUE(init->connected());

  std::vector<u8> data(4096, 0xC3);
  int ok = 0;
  int failed = 0;
  for (int i = 0; i < 20; ++i) {
    init->write(1, static_cast<u64>(i) * 8, data,
                [&](NvmfInitiator::IoResult r) { (r.ok() ? ok : failed)++; });
  }
  h.sched.run();

  EXPECT_EQ(ok, 20);
  EXPECT_EQ(failed, 0);
  const af::StagingPool& budget = h.service->global_staging();
  EXPECT_LE(budget.peak(), budget.capacity());
  EXPECT_EQ(budget.in_use(), 0u);
  EXPECT_GT(budget.denied(), 0u);
  EXPECT_GT(h.service->queue_full_rejects(), 0u);
}

TEST(OverloadTest, CongestedSignalRisesUnderPushbackAndRetryBudgetBounds) {
  // A command whose staging charge exceeds the whole global budget can never
  // be admitted: every attempt bounces with kQueueFull. The initiator's
  // congestion window must be visible while the backoffs are pending, and
  // the bounded retry ladder must eventually surface kQueueFull to the app
  // instead of spinning forever.
  TargetServiceOptions sopts;
  sopts.global_staging_bytes = 4096;
  OverloadHarness h(sopts);
  InitiatorOptions iopts = storm_opts("cong", 8);
  iopts.recovery.max_command_retries = 5;
  NvmfInitiator* init = h.add_initiator(iopts);
  init->connect([](Status) {});
  h.sched.run();
  ASSERT_TRUE(init->connected());
  EXPECT_FALSE(init->congested());

  std::vector<u8> big(8192, 0x11);  // charge 8 KiB > 4 KiB budget: never fits
  bool fired = false;
  pdu::NvmeStatus status = pdu::NvmeStatus::kSuccess;
  init->write(1, 0, big, [&](NvmfInitiator::IoResult r) {
    fired = true;
    status = r.cpl.status;
  });
  // Step the clock in small slices so the congestion window is observable
  // while the kQueueFull backoffs are pending.
  bool saw_congested = false;
  for (int guard = 0; guard < 10'000 && !fired; ++guard) {
    h.sched.run_until(h.sched.now() + 100'000);
    saw_congested |= init->congested();
  }
  EXPECT_TRUE(fired);
  EXPECT_TRUE(saw_congested);
  EXPECT_EQ(status, pdu::NvmeStatus::kQueueFull);
  EXPECT_EQ(init->resilience().queue_full_retries, 5u);

  // The association is still healthy: a command that fits the budget
  // completes and lifts the congestion window.
  std::vector<u8> small(4096, 0x22);
  bool ok = false;
  init->write(1, 64, small, [&](NvmfInitiator::IoResult r) { ok = r.ok(); });
  h.sched.run();
  EXPECT_TRUE(ok);
  EXPECT_FALSE(init->congested());
  EXPECT_EQ(h.service->global_staging().in_use(), 0u);
}

TEST(OverloadTest, ConnectAdmissionCapRejectsThenAdmitsAfterRelease) {
  TargetServiceOptions sopts;
  sopts.max_conns = 1;
  sopts.reject_retry_after_ms = 1;
  OverloadHarness h(sopts);

  NvmfInitiator* first = h.add_initiator(storm_opts("first", 4));
  first->connect([](Status) {});
  h.sched.run();
  ASSERT_TRUE(first->connected());

  // The second client is turned away with an explicit verdict and keeps
  // re-dialing on the reconnect ladder.
  InitiatorOptions iopts2 = storm_opts("second", 4);
  iopts2.recovery.max_attempts = 20;
  iopts2.recovery.handshake_timeout_ns = 10'000'000;
  NvmfInitiator* second = h.add_initiator(iopts2);
  Status second_connect = Status::ok();
  second->connect([&](Status st) { second_connect = st; });
  h.sched.run_until(h.sched.now() + 20'000'000);
  EXPECT_FALSE(second->connected());
  EXPECT_GE(h.service->connects_rejected(), 1u);
  EXPECT_GE(second->resilience().admission_rejects, 1u);

  // The first client hangs up; its association is reaped on the next
  // accept, freeing the slot — the second's retry is then admitted.
  h.initiators[0].reset();
  h.sched.run();
  EXPECT_TRUE(second->connected());
  EXPECT_TRUE(second_connect.is_ok());
}

TEST(OverloadTest, ConnectRejectFailsFastWithoutReconnectPolicy) {
  TargetServiceOptions sopts;
  sopts.max_conns = 1;
  OverloadHarness h(sopts);

  NvmfInitiator* first = h.add_initiator(storm_opts("one", 4));
  first->connect([](Status) {});
  h.sched.run();
  ASSERT_TRUE(first->connected());

  // No reconnect machinery (max_attempts 0): the rejection surfaces as a
  // typed retryable error instead of hanging the connect callback.
  InitiatorOptions iopts2 = storm_opts("two", 4);
  iopts2.recovery.max_attempts = 0;
  NvmfInitiator* second = h.add_initiator(iopts2);
  Status st = Status::ok();
  bool fired = false;
  second->connect([&](Status s) {
    st = s;
    fired = true;
  });
  h.sched.run();
  EXPECT_TRUE(fired);
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(second->dead());
  EXPECT_EQ(h.service->connects_rejected(), 1u);
}

TEST(OverloadTest, WatermarkShedReleasesChargeAndCommandRetries) {
  // A write wins admission (charging half the global budget) and then
  // stalls awaiting its data. Once occupancy crosses the shed watermark the
  // overload tick sheds it — the charge returns, the client gets a
  // retryable kQueueFull — and after the network heals the retry completes.
  TargetServiceOptions sopts;
  sopts.global_staging_bytes = 65536;
  sopts.shed_watermark = 0.4;
  OverloadHarness h(sopts);
  NvmfInitiator* init = h.add_initiator(storm_opts("shed", 4));
  init->connect([](Status) {});
  h.sched.run();
  ASSERT_TRUE(init->connected());

  h.client_ch->set_fault(
      [](pdu::Pdu& p) { return p.type() != pdu::PduType::kH2CData; });
  std::vector<u8> data(32768, 0x3C);
  bool ok = false;
  init->write(1, 0, data, [&](NvmfInitiator::IoResult r) { ok = r.ok(); });
  h.sched.run_until(h.sched.now() + 1'000'000);
  ASSERT_EQ(h.service->global_staging().in_use(), 32768u);

  h.service->overload_tick();
  EXPECT_GE(h.service->commands_shed(), 1u);
  EXPECT_EQ(h.service->global_staging().in_use(), 0u);

  // Heal the data path; the shed command's kQueueFull retry goes through.
  h.client_ch->set_fault([](pdu::Pdu&) { return true; });
  h.sched.run();
  EXPECT_TRUE(ok);
  EXPECT_GE(init->resilience().queue_full_received, 1u);
  EXPECT_EQ(h.service->global_staging().in_use(), 0u);
}

TEST(OverloadTest, SlowClientIsEvictedAndChargesReturn) {
  // A command stuck in flight past the stall watermark marks the whole
  // association as a slow client; the overload tick evicts it and the
  // teardown sweep returns its staging charges to the global budget.
  TargetServiceOptions sopts;
  sopts.global_staging_bytes = 1 << 20;
  sopts.stall_timeout_ns = 1;  // any in-flight command counts as stalled
  OverloadHarness h(sopts);
  InitiatorOptions iopts = storm_opts("slow", 4);
  iopts.recovery.max_attempts = 10;
  iopts.recovery.handshake_timeout_ns = 10'000'000;
  NvmfInitiator* init = h.add_initiator(iopts);
  init->connect([](Status) {});
  h.sched.run();
  ASSERT_TRUE(init->connected());

  // The slow client: it wins admission but its write data never arrives
  // (every H2CData PDU is dropped), so the command squats on target-side
  // state indefinitely.
  h.client_ch->set_fault(
      [](pdu::Pdu& p) { return p.type() != pdu::PduType::kH2CData; });
  std::vector<u8> data(32768, 0x77);  // 32 KiB: beyond in-capsule, needs H2C
  int ok = 0;
  int failed = 0;
  init->write(1, 0, data,
              [&](NvmfInitiator::IoResult r) { (r.ok() ? ok : failed)++; });
  h.sched.run_until(h.sched.now() + 1'000'000);
  NvmfTargetConnection* conn = h.service->find("slow");
  ASSERT_NE(conn, nullptr);
  ASSERT_GT(conn->inflight_now(), 0u);
  h.service->overload_tick();
  EXPECT_GE(h.service->evictions(), 1u);
  EXPECT_TRUE(conn->evicted());

  // The evicted client recovers on a fresh association (without the data
  // drop) and the write replays to completion; the global budget shows no
  // leaked charge.
  h.sched.run();
  EXPECT_EQ(ok, 1);
  EXPECT_EQ(failed, 0);
  EXPECT_EQ(h.service->global_staging().in_use(), 0u);
}

TEST(OverloadTest, DestroyingAServiceThatHoldsStagingIsClean) {
  // Every association returns its staging into the service's pool as it is
  // destroyed, so that pool must outlive them all. Tear the service down
  // while a parked write still holds recycled staging: a release into a
  // pool that is already gone is what the sanitizer jobs would report.
  TargetServiceOptions sopts;
  OverloadHarness h(sopts);
  NvmfInitiator* init = h.add_initiator(storm_opts("parked", 4));
  init->connect([](Status) {});
  h.sched.run();
  ASSERT_TRUE(init->connected());

  // A completed write leaves its storage on the pool's free list, in the
  // size class the parked write below reuses.
  std::vector<u8> data(32768, 0x5A);  // 32 KiB: beyond in-capsule, needs H2C
  bool ok = false;
  init->write(1, 0, data, [&](NvmfInitiator::IoResult r) { ok = r.ok(); });
  h.sched.run();
  ASSERT_TRUE(ok);
  ASSERT_EQ(h.service->global_staging().in_use(), 0u);

  // The next write is admitted but its data never arrives, so it parks on
  // the recycled storage.
  h.client_ch->set_fault(
      [](pdu::Pdu& p) { return p.type() != pdu::PduType::kH2CData; });
  init->write(1, 64, data, [](NvmfInitiator::IoResult) {});
  h.sched.run();
  ASSERT_EQ(h.service->global_staging().in_use(), 32768u);
  h.service.reset();
}

}  // namespace
}  // namespace oaf::nvmf
