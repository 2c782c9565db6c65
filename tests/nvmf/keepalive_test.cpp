// Keep-alive, association reaping, and runtime shm demotion.
//
// The keep-alive loop re-arms itself, so these tests drive the virtual
// clock with run_until() — sim::Scheduler::run() would chase the timer
// forever.
#include <gtest/gtest.h>

#include <functional>

#include "af/locality.h"
#include "net/fault_channel.h"
#include "net/pipe_channel.h"
#include "nvmf/initiator.h"
#include "nvmf/target_service.h"
#include "sim/scheduler.h"
#include "ssd/real_device.h"

namespace oaf::nvmf {
namespace {

struct KaHarness {
  explicit KaHarness(TargetServiceOptions sopts = {af::AfConfig::oaf()})
      : broker(1), device(sched, 512, 1 << 18), subsystem("nqn.ka") {
    (void)subsystem.add_namespace(1, &device);
    service = std::make_unique<NvmfTargetService>(sched, copier, broker,
                                                  subsystem, sopts);
  }

  /// Dial a fresh FaultChannel-wrapped pair and register the target side
  /// with the service under `conn_name`.
  std::unique_ptr<net::MsgChannel> dial(const std::string& conn_name) {
    auto [c, t] =
        net::wrap_fault_pair(net::make_pipe_channel_pair(sched, sched), {});
    client_ch = c.get();
    target_ch = t.get();
    service->accept(std::move(t), conn_name);
    return std::move(c);
  }

  std::unique_ptr<NvmfInitiator> make_initiator(InitiatorOptions iopts) {
    auto init = std::make_unique<NvmfInitiator>(
        sched,
        [this, name = iopts.connection_name] { return dial(name); },
        copier, broker, iopts);
    init->connect([](Status) {});
    return init;
  }

  sim::Scheduler sched;
  net::InlineCopier copier;
  af::ShmBroker broker;
  ssd::RealDevice device;
  ssd::Subsystem subsystem;
  std::unique_ptr<NvmfTargetService> service;
  net::FaultChannel* client_ch = nullptr;
  net::FaultChannel* target_ch = nullptr;
};

InitiatorOptions ka_opts(DurNs ka_interval) {
  InitiatorOptions iopts{af::AfConfig::oaf(), 8, "ka", 0, {}};
  iopts.recovery.max_attempts = 5;
  iopts.recovery.handshake_timeout_ns = 10'000'000;
  iopts.recovery.keepalive_interval_ns = ka_interval;
  return iopts;
}

TEST(KeepAliveTest, PingsAreEchoedAndNoMissesOnHealthyChannel) {
  KaHarness h;
  auto init = h.make_initiator(ka_opts(1'000'000));
  h.sched.run_until(10'000'000);
  ASSERT_TRUE(init->connected());
  EXPECT_GE(init->resilience().keepalive_sent, 5u);
  EXPECT_EQ(init->resilience().keepalive_misses, 0u);
  EXPECT_GE(h.service->find("ka")->keepalives_answered(), 5u);
}

TEST(KeepAliveTest, MissLimitTriggersRecoveryAndReconnect) {
  KaHarness h;
  auto init = h.make_initiator(ka_opts(1'000'000));
  h.sched.run_until(500'000);  // handshake settles at t=0
  ASSERT_TRUE(init->connected());

  // Kill the host->target direction: pings vanish, no echo ever returns,
  // and with a silent target there is no other traffic to prove liveness.
  h.client_ch->partition();
  h.sched.run_until(30'000'000);

  EXPECT_GE(init->resilience().keepalive_misses, 3u);
  EXPECT_EQ(init->resilience().reconnects, 1u);
  EXPECT_TRUE(init->connected());
  EXPECT_FALSE(init->dead());
  // The replacement association answers pings again.
  EXPECT_GE(h.service->find("ka")->keepalives_answered(), 1u);
}

TEST(KeepAliveTest, TargetReapsExpiredAssociationAndAcceptsSameName) {
  KaHarness h;
  InitiatorOptions iopts{af::AfConfig::oaf(), 8, "ka", 0, {}};
  iopts.recovery.kato_ns = 5'000'000;  // advertised in ICReq
  auto init = h.make_initiator(iopts);
  h.sched.run_until(500'000);
  ASSERT_TRUE(init->connected());
  ASSERT_TRUE(init->shm_active());
  ASSERT_EQ(h.service->active(), 1u);
  EXPECT_EQ(h.service->find("ka")->kato_ns(), 5'000'000);

  // The host goes silent (no keep-alive configured). Let the virtual clock
  // pass the KATO, then reap.
  h.sched.schedule_after(20'000'000, [] {});
  h.sched.run_until(21'000'000);
  EXPECT_EQ(h.service->reap_expired(), 1u);
  EXPECT_EQ(h.service->active(), 0u);

  // The same client name must be accepted again with a fresh shm grant —
  // the reap released the region the name was holding.
  auto init2 = h.make_initiator(iopts);
  h.sched.run_until(22'000'000);
  EXPECT_TRUE(init2->connected());
  EXPECT_TRUE(init2->shm_active());
  EXPECT_EQ(h.service->active(), 1u);
}

TEST(KeepAliveTest, PeriodicReaperCollectsSilentAssociation) {
  TargetServiceOptions sopts{af::AfConfig::oaf()};
  sopts.default_kato_ns = 5'000'000;  // applies when the client stays mute
  sopts.reaper_interval_ns = 2'000'000;
  KaHarness h(sopts);
  h.service->start_reaper();
  auto init = h.make_initiator({af::AfConfig::oaf(), 8, "ka", 0, {}});
  h.sched.run_until(500'000);
  ASSERT_TRUE(init->connected());
  ASSERT_EQ(h.service->active(), 1u);

  // No traffic at all: the reaper's own timer advances the clock past the
  // default KATO and collects the corpse without any help.
  h.sched.run_until(30'000'000);
  EXPECT_EQ(h.service->active(), 0u);
  EXPECT_GE(h.service->reaped(), 1u);
}

TEST(KeepAliveTest, ClosedChannelIsReapedImmediately) {
  KaHarness h;
  auto init = h.make_initiator({af::AfConfig::oaf(), 8, "ka", 0, {}});
  h.sched.run_until(500'000);
  ASSERT_TRUE(init->connected());

  h.client_ch->close();  // client hangs up (pipe close is shared)
  h.sched.run_until(1'000'000);
  EXPECT_EQ(h.service->reap_expired(), 1u);
  EXPECT_EQ(h.service->active(), 0u);
}

TEST(ShmDemotionTest, RuntimeDemotionKeepsInflightIoAliveAndDataIntact) {
  KaHarness h;
  InitiatorOptions iopts{af::AfConfig::oaf(), 8, "ka", 0, {}};
  auto init = h.make_initiator(iopts);
  h.sched.run();
  ASSERT_TRUE(init->connected());
  ASSERT_TRUE(init->shm_active());

  // 16 writes: 8 ride shm slots immediately, 8 queue behind them. Demote
  // mid-burst — parked slot payloads must drain, queued writes must go
  // inline, and not a single I/O may fail.
  constexpr int kIos = 16;
  constexpr u64 kIoBytes = 4096;
  std::vector<std::vector<u8>> bufs(kIos);
  int ok = 0;
  int failed = 0;
  for (int i = 0; i < kIos; ++i) {
    bufs[i].assign(kIoBytes, static_cast<u8>(0x21 + i));
    init->write(1, static_cast<u64>(i) * 8, bufs[i],
                [&](NvmfInitiator::IoResult r) { (r.ok() ? ok : failed)++; });
  }
  init->demote_shm("test: runtime demotion");
  EXPECT_FALSE(init->shm_active());  // producers switch off instantly
  h.sched.run();

  EXPECT_EQ(ok, kIos);
  EXPECT_EQ(failed, 0);
  EXPECT_EQ(init->resilience().shm_demotions, 1u);
  EXPECT_EQ(h.service->find("ka")->shm_demotions(), 1u);  // ShmDemote heard

  // Read-back (now inline over TCP) must be byte-identical.
  int verified = 0;
  std::vector<std::vector<u8>> rbufs(kIos);
  for (int i = 0; i < kIos; ++i) {
    rbufs[i].assign(kIoBytes, 0);
    init->read(1, static_cast<u64>(i) * 8, rbufs[i],
               [&, i](NvmfInitiator::IoResult r) {
                 verified += r.ok() && rbufs[i] == bufs[i];
               });
  }
  h.sched.run();
  EXPECT_EQ(verified, kIos);

  // Demotion is idempotent.
  init->demote_shm("test: again");
  EXPECT_EQ(init->resilience().shm_demotions, 1u);
}

TEST(ShmDemotionTest, DemotionWithoutShmIsANoop) {
  KaHarness h;
  auto init =
      h.make_initiator({af::AfConfig::stock_tcp(), 8, "ka", 0, {}});
  h.sched.run();
  ASSERT_TRUE(init->connected());
  ASSERT_FALSE(init->shm_active());
  init->demote_shm("test: nothing to demote");
  EXPECT_EQ(init->resilience().shm_demotions, 0u);
}

}  // namespace
}  // namespace oaf::nvmf
