// Fault injection: a misbehaving channel wrapper drops, corrupts, and
// forges PDUs between initiator and target. The protocol must degrade
// loudly and safely — terminate associations, fail commands, never crash,
// never mismatch data — which is what these tests pin down.
#include <gtest/gtest.h>

#include <functional>

#include "af/locality.h"
#include "common/rng.h"
#include "net/fault_channel.h"
#include "net/pipe_channel.h"
#include "nvmf/initiator.h"
#include "nvmf/target.h"
#include "sim/scheduler.h"
#include "ssd/real_device.h"

namespace oaf::nvmf {
namespace {

using net::FaultChannel;

struct FaultHarness {
  explicit FaultHarness(af::AfConfig cfg = af::AfConfig::oaf(),
                        DurNs timeout = 5'000'000)
      : broker(1), device(sched, 512, 1 << 18), subsystem("nqn.fault") {
    (void)subsystem.add_namespace(1, &device);
    auto pair = net::make_pipe_channel_pair(sched, sched);
    client_ch = std::make_unique<FaultChannel>(std::move(pair.first));
    target_ch = std::make_unique<FaultChannel>(std::move(pair.second));

    target = std::make_unique<NvmfTargetConnection>(
        sched, *target_ch, copier, broker, subsystem,
        TargetOptions{cfg, "fault"});
    InitiatorOptions iopts;
    iopts.af = cfg;
    iopts.queue_depth = 8;
    iopts.connection_name = "fault";
    iopts.command_timeout_ns = timeout;
    initiator = std::make_unique<NvmfInitiator>(sched, *client_ch, copier,
                                                broker, iopts);
    initiator->connect([](Status) {});
    sched.run();
  }

  sim::Scheduler sched;
  net::InlineCopier copier;
  af::ShmBroker broker;
  ssd::RealDevice device;
  ssd::Subsystem subsystem;
  std::unique_ptr<FaultChannel> client_ch;
  std::unique_ptr<FaultChannel> target_ch;
  std::unique_ptr<NvmfTargetConnection> target;
  std::unique_ptr<NvmfInitiator> initiator;
};

TEST(FaultInjectionTest, DroppedResponseTimesOutAndTearsDown) {
  FaultHarness h;
  // Drop every CapsuleResp from the target.
  h.target_ch->set_fault([](pdu::Pdu& p) {
    return p.type() != pdu::PduType::kCapsuleResp;
  });
  std::vector<u8> data(4096);
  pdu::NvmeStatus status = pdu::NvmeStatus::kSuccess;
  h.initiator->write(1, 0, data, [&](NvmfInitiator::IoResult r) {
    status = r.cpl.status;
  });
  h.sched.run();
  EXPECT_NE(status, pdu::NvmeStatus::kSuccess);
  EXPECT_EQ(h.initiator->timeouts(), 1u);
  EXPECT_TRUE(h.initiator->dead());
  EXPECT_GT(h.target_ch->dropped(), 0u);
}

TEST(FaultInjectionTest, AbortFailsAllOutstandingAndQueued) {
  FaultHarness h;
  h.target_ch->set_fault([](pdu::Pdu& p) {
    return p.type() != pdu::PduType::kCapsuleResp &&
           p.type() != pdu::PduType::kC2HData;
  });
  std::vector<u8> data(4096);
  int completed = 0;
  int failed = 0;
  // 20 commands against queue depth 8: 8 in flight + 12 queued.
  for (int i = 0; i < 20; ++i) {
    h.initiator->write(1, static_cast<u64>(i) * 8, data,
                       [&](NvmfInitiator::IoResult r) {
                         completed++;
                         if (!r.ok()) failed++;
                       });
  }
  h.sched.run();
  EXPECT_EQ(completed, 20);  // every callback fires exactly once
  EXPECT_EQ(failed, 20);
  EXPECT_TRUE(h.initiator->dead());
}

TEST(FaultInjectionTest, SubmissionAfterAbortFailsFast) {
  FaultHarness h;
  h.target_ch->set_fault([](pdu::Pdu&) { return false; });  // drop everything
  std::vector<u8> data(512);
  h.initiator->write(1, 0, data, [](NvmfInitiator::IoResult) {});
  h.sched.run();
  ASSERT_TRUE(h.initiator->dead());

  bool called = false;
  pdu::NvmeStatus status = pdu::NvmeStatus::kSuccess;
  h.initiator->read(1, 0, data, [&](NvmfInitiator::IoResult r) {
    called = true;
    status = r.cpl.status;
  });
  h.sched.run();
  EXPECT_TRUE(called);
  EXPECT_NE(status, pdu::NvmeStatus::kSuccess);
}

TEST(FaultInjectionTest, ForgedDuplicateCidTerminatesAssociation) {
  FaultHarness h;
  // Forge a command capsule with a cid the target is already serving.
  pdu::CapsuleCmd forged;
  forged.cmd.opcode = pdu::NvmeOpcode::kRead;
  forged.cmd.cid = 0;
  forged.cmd.nsid = 1;
  forged.cmd.nlb = 0;
  // First, occupy cid 0 with a legitimate slow command by sending the forged
  // duplicate immediately after a real submission.
  std::vector<u8> out(512);
  h.initiator->read(1, 0, out, [](NvmfInitiator::IoResult) {});
  pdu::Pdu dup;
  dup.header = forged;
  h.client_ch->inject(std::move(dup));
  h.sched.run();
  // The target noticed the protocol violation and sent TermReq; the
  // initiator's channel is closed. (The legitimate command may or may not
  // have completed first; what matters is no crash and a closed channel.)
  EXPECT_FALSE(h.client_ch->is_open());
}

TEST(FaultInjectionTest, UnknownCidResponsesAreIgnored) {
  FaultHarness h;
  // Inject completions for cids that were never issued.
  for (u16 cid : {3, 7, 200}) {
    pdu::CapsuleResp resp;
    resp.cpl.cid = cid;
    pdu::Pdu pdu;
    pdu.header = resp;
    h.target_ch->inject(std::move(pdu));
  }
  h.sched.run();
  // Initiator survives and still works.
  std::vector<u8> data(512);
  bool ok = false;
  h.initiator->write(1, 0, data, [&](NvmfInitiator::IoResult r) { ok = r.ok(); });
  h.sched.run();
  EXPECT_TRUE(ok);
  EXPECT_FALSE(h.initiator->dead());
}

TEST(FaultInjectionTest, CorruptedShmSlotReferenceFailsCommand) {
  FaultHarness h;
  ASSERT_TRUE(h.initiator->shm_active());
  // Point write capsules at a bogus slot: the target's consume fails and
  // the command completes with a transfer error instead of wedging.
  h.client_ch->set_fault([](pdu::Pdu& p) {
    if (auto* c = p.as<pdu::CapsuleCmd>();
        c != nullptr && c->placement == pdu::DataPlacement::kShmSlot) {
      c->shm_slot = 99;  // out of range
    }
    return true;
  });
  std::vector<u8> data(4096);
  pdu::NvmeStatus status = pdu::NvmeStatus::kSuccess;
  h.initiator->write(1, 0, data, [&](NvmfInitiator::IoResult r) {
    status = r.cpl.status;
  });
  h.sched.run();
  EXPECT_EQ(status, pdu::NvmeStatus::kDataTransferError);
  EXPECT_FALSE(h.initiator->dead());  // per-command failure, not a teardown
}

TEST(FaultInjectionTest, OversizedR2TFailsWriteWithoutSendingData) {
  FaultHarness h(af::AfConfig::stock_tcp());
  std::vector<u8> data(16 * 1024);  // above the in-capsule limit: R2T flow
  // A grant 4 KiB longer than the write: honouring it would send bytes
  // from past the end of the caller's buffer.
  h.target_ch->set_fault([&](pdu::Pdu& p) {
    if (auto* r2t = p.as<pdu::R2T>()) r2t->length = data.size() + 4096;
    return true;
  });
  int h2c_sent = 0;
  h.client_ch->set_fault([&](pdu::Pdu& p) {
    h2c_sent += p.type() == pdu::PduType::kH2CData ? 1 : 0;
    return true;
  });
  pdu::NvmeStatus status = pdu::NvmeStatus::kSuccess;
  h.initiator->write(1, 0, data, [&](NvmfInitiator::IoResult r) {
    status = r.cpl.status;
  });
  h.sched.run();
  EXPECT_EQ(status, pdu::NvmeStatus::kDataTransferError);
  EXPECT_EQ(h2c_sent, 0);
  EXPECT_FALSE(h.initiator->dead());
}

TEST(FaultInjectionTest, WrappingC2HOffsetFailsRead) {
  FaultHarness h(af::AfConfig::stock_tcp());
  std::vector<u8> data(4096, 0x5a);
  bool wrote = false;
  h.initiator->write(1, 0, data, [&](NvmfInitiator::IoResult r) {
    wrote = r.ok();
  });
  h.sched.run();
  ASSERT_TRUE(wrote);
  // offset + length wraps u64 to 3072, which a summing bounds check would
  // pass into a copy landing 1 KiB before the read buffer.
  h.target_ch->set_fault([](pdu::Pdu& p) {
    if (auto* c2h = p.as<pdu::C2HData>()) c2h->offset = ~u64{0} - 1023;
    return true;
  });
  std::vector<u8> out(4096);
  pdu::NvmeStatus status = pdu::NvmeStatus::kSuccess;
  h.initiator->read(1, 0, out, [&](NvmfInitiator::IoResult r) {
    status = r.cpl.status;
  });
  h.sched.run();
  EXPECT_EQ(status, pdu::NvmeStatus::kDataTransferError);
  EXPECT_FALSE(h.initiator->dead());
}

TEST(FaultInjectionTest, RandomDropStormNeverWedgesForever) {
  // Property: with a lossy channel and timeouts enabled, every submitted
  // command's callback fires exactly once (success, error, or abort).
  for (u64 seed : {1u, 2u, 3u, 4u, 5u}) {
    FaultHarness h(af::AfConfig::oaf(), /*timeout=*/2'000'000);
    auto rng = std::make_shared<Rng>(seed);
    h.target_ch->set_fault([rng](pdu::Pdu&) { return !rng->next_bool(0.2); });
    h.client_ch->set_fault([rng](pdu::Pdu&) { return !rng->next_bool(0.2); });

    int callbacks = 0;
    std::vector<u8> data(4096);
    constexpr int kCommands = 30;
    for (int i = 0; i < kCommands; ++i) {
      if (i % 2 == 0) {
        h.initiator->write(1, static_cast<u64>(i) * 8, data,
                           [&](NvmfInitiator::IoResult) { callbacks++; });
      } else {
        h.initiator->read(1, static_cast<u64>(i) * 8, data,
                          [&](NvmfInitiator::IoResult) { callbacks++; });
      }
    }
    h.sched.run();
    EXPECT_EQ(callbacks, kCommands) << "seed " << seed;
  }
}

TEST(FaultInjectionTest, TimeoutDisabledMeansNoSpuriousAborts) {
  FaultHarness h(af::AfConfig::oaf(), /*timeout=*/0);
  std::vector<u8> data(4096);
  int ok = 0;
  for (int i = 0; i < 10; ++i) {
    h.initiator->write(1, static_cast<u64>(i) * 8, data,
                       [&](NvmfInitiator::IoResult r) { ok += r.ok(); });
  }
  h.sched.run();
  EXPECT_EQ(ok, 10);
  EXPECT_EQ(h.initiator->timeouts(), 0u);
}

}  // namespace
}  // namespace oaf::nvmf
