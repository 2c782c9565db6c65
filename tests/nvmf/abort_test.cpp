// Command-lifetime escalation ladder: per-I/O deadlines, NVMe Abort, shm
// demotion, and the hand-off to the reconnect machine.
//
// The headline property: one stuck command no longer tears down the whole
// association. The deadline wheel notices it, an Abort cancels it at the
// target, and every other in-flight I/O completes on the same connection
// with zero reconnects. When aborts themselves fail, the ladder demotes the
// shm path and finally hands off to PR-1 recovery — each rung observable
// through ResilienceCounters.
#include <gtest/gtest.h>

#include <functional>

#include "af/locality.h"
#include "bench/perf_driver.h"
#include "net/fault_channel.h"
#include "net/pipe_channel.h"
#include "nvmf/deadline_wheel.h"
#include "nvmf/initiator.h"
#include "nvmf/target_service.h"
#include "shm/fault_ring.h"
#include "sim/scheduler.h"
#include "ssd/sim_device.h"

namespace oaf::nvmf {
namespace {

// ---------------------------------------------------------------------------
// DeadlineWheel unit tests
// ---------------------------------------------------------------------------

TEST(DeadlineWheelTest, FiresAtOrAfterDeadlineWithinOneTick) {
  sim::Scheduler sched;
  DeadlineWheel wheel(sched, 250'000);
  int fires = 0;
  u16 fired_cid = 0;
  u64 fired_gen = 0;
  TimeNs fired_at = -1;
  wheel.set_callback([&](u16 cid, u64 gen) {
    fires++;
    fired_cid = cid;
    fired_gen = gen;
    fired_at = sched.now();
  });
  wheel.arm(3, 42, 1'000'000);
  // run() terminating at all proves the tick disarms itself once drained.
  sched.run();
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(fired_cid, 3);
  EXPECT_EQ(fired_gen, 42u);
  EXPECT_GE(fired_at, 1'000'000);          // never early
  EXPECT_LE(fired_at, 1'250'000);          // at most one tick late
  EXPECT_EQ(wheel.armed(), 0u);
}

TEST(DeadlineWheelTest, CancelPreventsExpiry) {
  sim::Scheduler sched;
  DeadlineWheel wheel(sched, 250'000);
  int fires = 0;
  wheel.set_callback([&](u16, u64) { fires++; });
  wheel.arm(1, 7, 1'000'000);
  wheel.cancel(1);
  EXPECT_EQ(wheel.armed(), 0u);
  sched.run();
  EXPECT_EQ(fires, 0);
}

TEST(DeadlineWheelTest, RearmSupersedesEarlierDeadline) {
  sim::Scheduler sched;
  DeadlineWheel wheel(sched, 125'000);
  int fires = 0;
  u64 fired_gen = 0;
  TimeNs fired_at = -1;
  wheel.set_callback([&](u16, u64 gen) {
    fires++;
    fired_gen = gen;
    fired_at = sched.now();
  });
  wheel.arm(1, 1, 500'000);
  wheel.arm(1, 2, 2'000'000);  // same cid, new attempt: the only live entry
  sched.run();
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(fired_gen, 2u);
  EXPECT_GE(fired_at, 2'000'000);
}

// ---------------------------------------------------------------------------
// Escalation-ladder integration
// ---------------------------------------------------------------------------

/// Reads wedge for 10 ms of virtual time — far past every deadline in these
/// tests — while writes stay well under them. One slow read is the canonical
/// "single stuck command" without disturbing neighbouring I/O.
ssd::SimDeviceParams slow_read_params() {
  ssd::SimDeviceParams p;
  p.num_blocks = 1 << 18;
  p.read_base_ns = 10'000'000;
  p.write_base_ns = 10'000;
  p.read_bytes_per_sec = 1e12;
  p.write_bytes_per_sec = 1e12;
  p.max_read_bytes_per_sec = 1e12;
  p.max_write_bytes_per_sec = 1e12;
  p.jitter_frac = 0;
  return p;
}

struct AbortHarness {
  explicit AbortHarness(TargetServiceOptions sopts = {af::AfConfig::oaf()})
      : broker(1), device(sched, slow_read_params()), subsystem("nqn.abort") {
    (void)subsystem.add_namespace(1, &device);
    service = std::make_unique<NvmfTargetService>(sched, copier, broker,
                                                  subsystem, sopts);
  }

  std::unique_ptr<net::MsgChannel> dial(const std::string& conn_name) {
    auto [c, t] =
        net::wrap_fault_pair(net::make_pipe_channel_pair(sched, sched), policy);
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
  net::FaultPolicy policy;
  af::ShmBroker broker;
  ssd::SimDevice device;
  ssd::Subsystem subsystem;
  std::unique_ptr<NvmfTargetService> service;
  net::FaultChannel* client_ch = nullptr;
  net::FaultChannel* target_ch = nullptr;
};

InitiatorOptions ladder_opts(u32 abort_budget, DurNs timeout = 1'000'000) {
  InitiatorOptions iopts{af::AfConfig::oaf(), 8, "abort", timeout, {}};
  iopts.recovery.abort_budget = abort_budget;
  return iopts;
}

TEST(AbortTest, StuckCommandIsAbortedWithoutTeardown) {
  AbortHarness h;
  auto init = h.make_initiator(ladder_opts(/*abort_budget=*/2));
  h.sched.run_until(500'000);
  ASSERT_TRUE(init->connected());
  ASSERT_TRUE(init->shm_active());

  // One read wedges in the device; four writes share the association.
  std::vector<u8> rbuf(4096);
  pdu::NvmeStatus read_status = pdu::NvmeStatus::kSuccess;
  init->read(1, 0, rbuf,
             [&](NvmfInitiator::IoResult r) { read_status = r.cpl.status; });
  std::vector<u8> wbuf(4096, 0x42);
  int writes_ok = 0;
  for (int i = 0; i < 4; ++i) {
    init->write(1, 8 + static_cast<u64>(i) * 8, wbuf,
                [&](NvmfInitiator::IoResult r) { writes_ok += r.ok(); });
  }
  h.sched.run();

  // The stuck read was surgically removed; everything else survived.
  EXPECT_EQ(read_status, pdu::NvmeStatus::kAbortedByRequest);
  EXPECT_EQ(writes_ok, 4);
  EXPECT_FALSE(init->dead());
  EXPECT_EQ(init->timeouts(), 1u);
  EXPECT_EQ(init->resilience().reconnects, 0u);
  EXPECT_EQ(init->resilience().deadlines_expired, 1u);
  EXPECT_EQ(init->resilience().aborts_sent, 1u);
  EXPECT_EQ(init->resilience().aborts_succeeded, 1u);
  EXPECT_EQ(init->resilience().aborts_failed, 0u);
  EXPECT_EQ(init->resilience().commands_aborted, 1u);
  ASSERT_NE(h.service->find("abort"), nullptr);
  EXPECT_EQ(h.service->find("abort")->aborts_handled(), 1u);
  EXPECT_EQ(h.service->find("abort")->commands_aborted(), 1u);

  // The association keeps serving I/O on the same connection afterwards.
  int more_ok = 0;
  for (int i = 0; i < 3; ++i) {
    init->write(1, 64 + static_cast<u64>(i) * 8, wbuf,
                [&](NvmfInitiator::IoResult r) { more_ok += r.ok(); });
  }
  h.sched.run();
  EXPECT_EQ(more_ok, 3);
  EXPECT_EQ(init->resilience().reconnects, 0u);
}

TEST(AbortTest, LostCompletionIsReplayedInPlace) {
  AbortHarness h;
  auto init = h.make_initiator(ladder_opts(/*abort_budget=*/2));
  h.sched.run_until(500'000);
  ASSERT_TRUE(init->connected());

  // Drop exactly the victim's completion: the target has no record of the
  // command when the Abort arrives (result 1) and the host replays in place.
  int dropped = 0;
  h.target_ch->set_fault([&](pdu::Pdu& p) {
    if (p.type() == pdu::PduType::kCapsuleResp && dropped == 0) {
      dropped++;
      return false;
    }
    return true;
  });
  std::vector<u8> wbuf(4096, 0x17);
  bool ok = false;
  init->write(1, 0, wbuf, [&](NvmfInitiator::IoResult r) { ok = r.ok(); });
  h.sched.run();

  EXPECT_TRUE(ok);  // replayed and completed, all on the same association
  EXPECT_EQ(dropped, 1);
  EXPECT_EQ(init->resilience().aborts_sent, 1u);
  EXPECT_EQ(init->resilience().aborts_succeeded, 1u);
  EXPECT_EQ(init->resilience().commands_retried, 1u);
  EXPECT_EQ(init->resilience().commands_aborted, 0u);
  EXPECT_EQ(init->resilience().reconnects, 0u);
  EXPECT_FALSE(init->dead());
}

TEST(AbortTest, FailedAbortsDemoteShmThenThirdAbortLands) {
  AbortHarness h;
  auto init = h.make_initiator(ladder_opts(/*abort_budget=*/3));
  h.sched.run_until(500'000);
  ASSERT_TRUE(init->connected());
  ASSERT_TRUE(init->shm_active());

  // The first two Aborts vanish on the wire. Their consecutive timeouts
  // (RecoveryPolicy::kDemoteAfterFailedAborts) are the signal the ladder
  // treats as "control path struggling while shm is active", and the data
  // path demotes before the next retry.
  static_assert(RecoveryPolicy::kDemoteAfterFailedAborts == 2);
  int aborts_dropped = 0;
  h.client_ch->set_fault([&](pdu::Pdu& p) {
    if (auto* c = p.as<pdu::CapsuleCmd>();
        c != nullptr && c->cmd.opcode == pdu::NvmeOpcode::kAbort &&
        aborts_dropped < 2) {
      aborts_dropped++;
      return false;
    }
    return true;
  });
  std::vector<u8> rbuf(4096);
  pdu::NvmeStatus read_status = pdu::NvmeStatus::kSuccess;
  init->read(1, 0, rbuf,
             [&](NvmfInitiator::IoResult r) { read_status = r.cpl.status; });
  h.sched.run();

  EXPECT_EQ(read_status, pdu::NvmeStatus::kAbortedByRequest);
  EXPECT_EQ(aborts_dropped, 2);
  EXPECT_FALSE(init->shm_active());  // rung two fired
  EXPECT_EQ(init->resilience().shm_demotions, 1u);
  EXPECT_EQ(init->resilience().aborts_sent, 3u);
  EXPECT_EQ(init->resilience().aborts_failed, 2u);
  EXPECT_EQ(init->resilience().aborts_succeeded, 1u);
  EXPECT_EQ(init->resilience().reconnects, 0u);
  EXPECT_FALSE(init->dead());

  // Demoted but alive: subsequent I/O rides inline TCP on the same
  // association.
  std::vector<u8> wbuf(4096, 0x33);
  bool ok = false;
  init->write(1, 8, wbuf, [&](NvmfInitiator::IoResult r) { ok = r.ok(); });
  h.sched.run();
  EXPECT_TRUE(ok);
}

TEST(AbortTest, AbortBudgetExhaustedHandsOffToReconnect) {
  AbortHarness h;
  InitiatorOptions iopts = ladder_opts(/*abort_budget=*/2);
  iopts.recovery.max_attempts = 3;
  iopts.recovery.handshake_timeout_ns = 10'000'000;
  iopts.recovery.max_command_retries = 0;  // the stuck read fails, once
  auto init = h.make_initiator(iopts);
  h.sched.run_until(500'000);
  ASSERT_TRUE(init->connected());

  // Every Abort vanishes: rung one fails twice, rung two demotes, rung
  // three declares the control path dead and hands off to recovery.
  h.client_ch->set_fault([](pdu::Pdu& p) {
    auto* c = p.as<pdu::CapsuleCmd>();
    return c == nullptr || c->cmd.opcode != pdu::NvmeOpcode::kAbort;
  });
  std::vector<u8> rbuf(4096);
  int completions = 0;
  bool read_ok = true;
  init->read(1, 0, rbuf, [&](NvmfInitiator::IoResult r) {
    completions++;
    read_ok = r.ok();
  });
  h.sched.run();

  EXPECT_EQ(completions, 1);  // exactly one callback, despite the ladder
  EXPECT_FALSE(read_ok);
  EXPECT_EQ(init->resilience().aborts_sent, 2u);
  EXPECT_EQ(init->resilience().aborts_failed, 2u);
  EXPECT_EQ(init->resilience().shm_demotions, 1u);
  EXPECT_EQ(init->resilience().reconnects, 1u);
  EXPECT_TRUE(init->connected());
  EXPECT_FALSE(init->dead());

  // The replacement association serves I/O again.
  std::vector<u8> wbuf(4096, 0x55);
  bool ok = false;
  init->write(1, 8, wbuf, [&](NvmfInitiator::IoResult r) { ok = r.ok(); });
  h.sched.run();
  EXPECT_TRUE(ok);
}

// Regression: an abort *storm* must drain. When the real RTT exceeds both
// the command deadline and the abort deadline (an overloaded link — the
// shape a too-tight --cmd-timeout-ms produces on the real tools), every
// command times out, every abort locally times out before its response
// lands, and abort responses arrive for already-erased abort cids. A perf
// driver wedged forever in exactly this scenario: the drain below must
// reach zero with every submission accounted for.
TEST(AbortTest, AbortStormUnderRttInflationDrains) {
  AbortHarness h;
  h.policy.delay_ns = 1'500'000;        // one-way 1.5-2ms: RTT >> deadlines
  h.policy.delay_jitter_ns = 500'000;
  h.policy.seed = 7;
  auto init = h.make_initiator(ladder_opts(/*abort_budget=*/1000));
  h.sched.run_until(20'000'000);
  ASSERT_TRUE(init->connected());

  // perf-style closed loop: keep 8 I/Os outstanding, reissue on completion
  // until t_stop, then drain. Mix reads (device-stuck at 10ms) and writes
  // (fast at the device but RTT-stuck on the wire).
  const TimeNs t_stop = h.sched.now() + 50'000'000;
  std::vector<u8> wbuf(4096, 0x5a);
  std::vector<u8> rbuf(4096);
  int submitted = 0;
  int completed = 0;
  std::function<void()> issue = [&] {
    if (h.sched.now() >= t_stop || init->dead()) return;
    const int n = submitted++;
    auto on_done = [&](NvmfInitiator::IoResult) {
      completed++;
      issue();
    };
    if (n % 4 == 0) {
      init->read(1, static_cast<u64>(n % 64) * 8, rbuf, on_done);
    } else {
      init->write(1, static_cast<u64>(n % 64) * 8, wbuf, on_done);
    }
  };
  for (int i = 0; i < 8; ++i) issue();
  // 2s of virtual time is ~40x the issue window: a storm that has not
  // drained by now never will.
  h.sched.run_until(h.sched.now() + 2'000'000'000);

  EXPECT_EQ(completed, submitted);
  EXPECT_GT(init->resilience().aborts_sent, 0u);
  EXPECT_FALSE(init->dead());
}

// Same storm, driven by the real PerfDriver: zero-copy submissions, big
// chunked I/O, mid-storm demotion. This is a sim replica of
// `oaf_perf --cmd-timeout-ms 1 --abort-budget 1000` against a live target,
// which originally wedged forever waiting for completions that never came.
TEST(AbortTest, PerfDriverSurvivesAbortStorm) {
  AbortHarness h;
  h.policy.delay_ns = 1'500'000;
  h.policy.delay_jitter_ns = 500'000;
  h.policy.seed = 11;
  InitiatorOptions iopts = ladder_opts(/*abort_budget=*/1000);
  iopts.queue_depth = 16;
  auto init = h.make_initiator(iopts);
  h.sched.run_until(20'000'000);
  ASSERT_TRUE(init->connected());

  bench::WorkloadSpec spec;
  spec.io_bytes = 256 * 1024;
  spec.queue_depth = 16;
  spec.read_fraction = 0.5;
  spec.sequential = false;
  spec.duration = 50'000'000;  // 50 ms of issuing
  spec.warmup = 5'000'000;
  spec.working_set_bytes = 16 << 20;
  bench::PerfDriver driver(h.sched, *init, spec);
  bool done = false;
  driver.run([&](RunStats) { done = true; });
  // Give the drain 100x the issue window; a wedge never resolves itself.
  h.sched.run_until(h.sched.now() + 5'000'000'000);

  EXPECT_TRUE(done);
  EXPECT_GT(init->resilience().aborts_sent, 0u);
  EXPECT_FALSE(init->dead());
}

TEST(AbortTest, CorruptedSlotLenDemotesBothEndsWithoutTeardown) {
  AbortHarness h;
  InitiatorOptions iopts{af::AfConfig::oaf(), 8, "abort", 0, {}};
  auto init = h.make_initiator(iopts);
  h.sched.run_until(500'000);
  ASSERT_TRUE(init->connected());
  ASSERT_TRUE(init->shm_active());

  // Forge the published slot's len *after* publish and *before* the capsule
  // reaches the target. Riding the capsule that carries the slot reference
  // phases the corruption exactly like a peer racing its own notification —
  // no concurrent mutation of an owned slot.
  af::AfEndpoint& ep = init->endpoint();
  bool corrupted = false;
  h.client_ch->set_fault([&](pdu::Pdu& p) {
    if (auto* c = p.as<pdu::CapsuleCmd>();
        c != nullptr && c->placement == pdu::DataPlacement::kShmSlot &&
        !corrupted) {
      corrupted = true;
      shm::ShmFaultRing fault(ep.ring());
      fault.corrupt_len(shm::Direction::kClientToTarget, c->shm_slot,
                        ep.slot_bytes() + 1);
    }
    return true;
  });
  std::vector<u8> wbuf(4096, 0x66);
  pdu::NvmeStatus st = pdu::NvmeStatus::kSuccess;
  init->write(1, 0, wbuf,
              [&](NvmfInitiator::IoResult r) { st = r.cpl.status; });
  h.sched.run();

  // The fencing caught the forgery: per-command error, both ends demoted,
  // association intact — never an out-of-bounds read, never a teardown.
  ASSERT_TRUE(corrupted);
  EXPECT_EQ(st, pdu::NvmeStatus::kDataTransferError);
  ASSERT_NE(h.service->find("abort"), nullptr);
  EXPECT_EQ(h.service->find("abort")->peer_misbehavior(), 1u);
  EXPECT_EQ(h.service->find("abort")->shm_demotions(), 1u);
  EXPECT_EQ(init->resilience().shm_demotions, 1u);  // ShmDemote PDU heard
  EXPECT_FALSE(init->shm_active());
  EXPECT_FALSE(init->dead());
  EXPECT_EQ(init->resilience().reconnects, 0u);

  // Post-demotion traffic rides inline TCP on the same association.
  bool ok = false;
  init->write(1, 8, wbuf, [&](NvmfInitiator::IoResult r) { ok = r.ok(); });
  h.sched.run();
  EXPECT_TRUE(ok);
}

TEST(AbortTest, OrphanSlotSweepReclaimsSlotOfExpiredOwner) {
  AbortHarness h;
  InitiatorOptions iopts{af::AfConfig::oaf(), 8, "abort", 0, {}};
  iopts.recovery.kato_ns = 2'000'000;  // the target's stuck window
  auto init = h.make_initiator(iopts);
  h.sched.run_until(500'000);
  ASSERT_TRUE(init->connected());
  ASSERT_TRUE(init->supports_zero_copy());

  // The application borrows a zero-copy buffer (slot goes kWriting) and then
  // dies without ever submitting — the classic orphan.
  auto ticket = init->zero_copy_write_begin(4096);
  ASSERT_TRUE(ticket.is_ok());

  // First sweep only records the stuck state's age; nothing is reclaimed
  // before the owner's KATO has elapsed.
  EXPECT_EQ(h.service->sweep_orphan_slots(), 0u);
  h.sched.schedule_after(3'000'000, [] {});  // silence past the KATO
  h.sched.run_until(3'600'000);
  EXPECT_EQ(h.service->sweep_orphan_slots(), 1u);
  EXPECT_EQ(h.service->orphan_slots_reclaimed(), 1u);

  // Idempotent: the reclaimed slot is kFree, not stuck.
  EXPECT_EQ(h.service->sweep_orphan_slots(), 0u);
}

TEST(AbortTest, SweepLeavesHealthyTrafficAlone) {
  TargetServiceOptions sopts{af::AfConfig::oaf()};
  sopts.orphan_slot_timeout_ns = 2'000'000;  // fallback window, no KATO
  AbortHarness h(sopts);
  InitiatorOptions iopts{af::AfConfig::oaf(), 8, "abort", 0, {}};
  auto init = h.make_initiator(iopts);
  h.sched.run_until(500'000);
  ASSERT_TRUE(init->connected());

  // Steady writes with sweeps interleaved: an active ring never has a slot
  // stuck past the window, so the sweeper must reclaim nothing.
  std::vector<u8> wbuf(4096, 0x7A);
  int ok = 0;
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 4; ++i) {
      init->write(1, static_cast<u64>(round * 4 + i) * 8, wbuf,
                  [&](NvmfInitiator::IoResult r) { ok += r.ok(); });
    }
    h.sched.run();
    EXPECT_EQ(h.service->sweep_orphan_slots(), 0u);
    h.sched.schedule_after(2'500'000, [] {});
    h.sched.run();
  }
  EXPECT_EQ(ok, 16);
  EXPECT_EQ(h.service->orphan_slots_reclaimed(), 0u);
}

}  // namespace
}  // namespace oaf::nvmf
