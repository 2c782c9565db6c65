// Connection resilience: the initiator's reconnect state machine must
// re-dial through its ChannelFactory after transport faults, replay queued
// and safely-retryable in-flight commands, and keep every fault invisible
// to the application. Faults are injected with the seeded net::FaultChannel
// so every scenario replays deterministically.
#include <gtest/gtest.h>

#include <algorithm>
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

InitiatorOptions resilient_opts(af::AfConfig cfg = af::AfConfig::oaf()) {
  InitiatorOptions iopts{cfg, 8, "reconn", 0, {}};
  iopts.command_timeout_ns = 5'000'000;
  iopts.recovery.max_attempts = 10;
  iopts.recovery.handshake_timeout_ns = 10'000'000;
  return iopts;
}

/// Initiator dialing a NvmfTargetService through fresh FaultChannel-wrapped
/// pipe pairs: every (re)connect attempt produces a brand-new channel pair
/// and a brand-new target-side association, like a real re-dial would.
struct ReconnectHarness {
  explicit ReconnectHarness(InitiatorOptions iopts,
                            af::AfConfig target_cfg = af::AfConfig::oaf())
      : broker(1), device(sched, 512, 1 << 18), subsystem("nqn.reconn") {
    (void)subsystem.add_namespace(1, &device);
    TargetServiceOptions sopts;
    sopts.af = target_cfg;
    service = std::make_unique<NvmfTargetService>(sched, copier, broker,
                                                  subsystem, sopts);
    initiator = std::make_unique<NvmfInitiator>(
        sched, [this] { return dial(); }, copier, broker, iopts);
    initiator->connect([](Status) {});
  }

  std::unique_ptr<net::MsgChannel> dial() {
    dials++;
    if (unreachable) return nullptr;
    net::FaultPolicy p = dial_policy;
    p.seed = dial_policy.seed + static_cast<u64>(dials) * 1000;
    auto [c, t] =
        net::wrap_fault_pair(net::make_pipe_channel_pair(sched, sched), p);
    client_ch = c.get();
    target_ch = t.get();
    if (on_dial) on_dial(*client_ch, *target_ch);
    service->accept(std::move(t), "reconn");
    return std::move(c);
  }

  sim::Scheduler sched;
  net::InlineCopier copier;
  af::ShmBroker broker;
  ssd::RealDevice device;
  ssd::Subsystem subsystem;
  std::unique_ptr<NvmfTargetService> service;
  std::unique_ptr<NvmfInitiator> initiator;

  net::FaultChannel* client_ch = nullptr;  // most recent dial's endpoints
  net::FaultChannel* target_ch = nullptr;
  net::FaultPolicy dial_policy;  // applied to every fresh pair
  bool unreachable = false;      // dial() fails outright (network partition)
  std::function<void(net::FaultChannel&, net::FaultChannel&)> on_dial;
  int dials = 0;
};

TEST(ReconnectTest, DroppedResponsesTriggerReconnectAndReplay) {
  ReconnectHarness h(resilient_opts());
  h.sched.run();
  ASSERT_TRUE(h.initiator->connected());

  // Swallow the first few completions: the affected commands time out, the
  // association recovers on a fresh channel, and the replays finish the job.
  int to_drop = 3;
  h.target_ch->set_fault([&to_drop](pdu::Pdu& p) {
    if (to_drop > 0 && (p.type() == pdu::PduType::kCapsuleResp ||
                        p.type() == pdu::PduType::kC2HData)) {
      to_drop--;
      return false;
    }
    return true;
  });

  std::vector<u8> data(4096, 0x5A);
  int ok = 0;
  int failed = 0;
  for (int i = 0; i < 10; ++i) {
    h.initiator->write(1, static_cast<u64>(i) * 8, data,
                       [&](NvmfInitiator::IoResult r) {
                         (r.ok() ? ok : failed)++;
                       });
  }
  h.sched.run();
  EXPECT_EQ(ok, 10);
  EXPECT_EQ(failed, 0);
  EXPECT_FALSE(h.initiator->dead());
  EXPECT_GE(h.initiator->resilience().reconnects, 1u);
  EXPECT_GE(h.initiator->resilience().commands_retried, 1u);
  EXPECT_GE(h.initiator->timeouts(), 1u);
  EXPECT_GE(h.dials, 2);
}

TEST(ReconnectTest, DroppedIcrespBurnsAttemptThenConnects) {
  ReconnectHarness h(resilient_opts());
  h.sched.run();
  ASSERT_TRUE(h.initiator->connected());

  // The first re-dial loses its ICResp: the handshake timeout must burn
  // that attempt and the next dial must complete the reconnect.
  h.on_dial = [&h](net::FaultChannel&, net::FaultChannel& target) {
    if (h.dials == 2) {
      target.set_fault(
          [](pdu::Pdu& p) { return p.type() != pdu::PduType::kICResp; });
    }
  };
  h.initiator->force_recover("test: forced disconnect");
  h.sched.run();

  EXPECT_TRUE(h.initiator->connected());
  EXPECT_EQ(h.dials, 3);
  EXPECT_EQ(h.initiator->resilience().reconnects, 1u);
  EXPECT_GE(h.initiator->resilience().reconnect_failures, 1u);

  std::vector<u8> data(512);
  bool ok = false;
  h.initiator->write(1, 0, data, [&](NvmfInitiator::IoResult r) { ok = r.ok(); });
  h.sched.run();
  EXPECT_TRUE(ok);
}

TEST(ReconnectTest, PartitionThenHealReconnectsAndFlushesQueue) {
  ReconnectHarness h(resilient_opts());
  h.sched.run();
  ASSERT_TRUE(h.initiator->connected());

  // Network partition: every dial fails until the partition heals. I/O
  // submitted meanwhile waits in the queue and completes after recovery.
  h.unreachable = true;
  h.initiator->force_recover("test: partition");
  std::vector<u8> data(4096, 0x7B);
  bool ok = false;
  h.initiator->write(1, 0, data, [&](NvmfInitiator::IoResult r) { ok = r.ok(); });
  h.sched.schedule_after(20'000'000, [&h] { h.unreachable = false; });
  h.sched.run();

  EXPECT_TRUE(ok);
  EXPECT_TRUE(h.initiator->connected());
  EXPECT_FALSE(h.initiator->dead());
  EXPECT_GE(h.initiator->resilience().reconnect_failures, 1u);
  EXPECT_EQ(h.initiator->resilience().reconnects, 1u);
}

TEST(ReconnectTest, ExhaustedAttemptsAbortTheAssociation) {
  InitiatorOptions iopts = resilient_opts();
  iopts.recovery.max_attempts = 2;
  ReconnectHarness h(iopts);
  h.sched.run();
  ASSERT_TRUE(h.initiator->connected());

  h.unreachable = true;
  std::vector<u8> data(512);
  pdu::NvmeStatus status = pdu::NvmeStatus::kSuccess;
  h.initiator->write(1, 0, data,
                     [&](NvmfInitiator::IoResult r) { status = r.cpl.status; });
  h.initiator->force_recover("test: permanent outage");
  h.sched.run();

  EXPECT_TRUE(h.initiator->dead());
  EXPECT_NE(status, pdu::NvmeStatus::kSuccess);  // failed exactly once
  EXPECT_EQ(h.initiator->resilience().reconnects, 0u);
  EXPECT_GE(h.initiator->resilience().reconnect_failures, 2u);
}

// A zero-copy write ticket reserves a cid and a slot of one association's
// shm region. It is not a command: a reconnect neither replays it nor frees
// its cid, and once the ticket comes back its write fails alone.
TEST(ReconnectTest, TicketHeldAcrossReconnectIsVoidedNotReplayed) {
  ReconnectHarness h(resilient_opts());
  h.sched.run();
  ASSERT_TRUE(h.initiator->supports_zero_copy());
  auto ticket = h.initiator->zero_copy_write_begin(4096);
  ASSERT_TRUE(ticket.is_ok()) << ticket.status().to_string();

  h.initiator->force_recover("test: ticket outlives its association");
  h.sched.run();
  ASSERT_TRUE(h.initiator->connected());
  EXPECT_EQ(h.initiator->resilience().reconnects, 1u);
  // Nothing was replayed in the ticket's place.
  EXPECT_EQ(h.initiator->ios_completed(), 0u);
  EXPECT_EQ(h.service->commands_served(), 0u);
  EXPECT_EQ(h.initiator->resilience().commands_retried, 0u);
  // The buffer still points into live memory: the old mapping is kept
  // until the ticket comes back.
  std::fill(ticket.value().buffer.begin(), ticket.value().buffer.end(), 0x7E);

  // A full queue of writes: none may take the ticket's cid.
  std::vector<u8> data(4096, 0x3C);
  int writes_ok = 0;
  int writes_failed = 0;
  for (int i = 0; i < 8; ++i) {
    h.initiator->write(1, static_cast<u64>(i) * 8, data,
                       [&](NvmfInitiator::IoResult r) {
                         (r.ok() ? writes_ok : writes_failed)++;
                       });
  }
  std::vector<pdu::NvmeStatus> ticket_answers;
  h.initiator->zero_copy_write(ticket.value(), 1, 64, 4096,
                               [&](NvmfInitiator::IoResult r) {
                                 ticket_answers.push_back(r.cpl.status);
                               });
  h.sched.run();

  ASSERT_EQ(ticket_answers.size(), 1u);
  EXPECT_EQ(ticket_answers[0], pdu::NvmeStatus::kDataTransferError);
  EXPECT_EQ(writes_ok, 8);
  EXPECT_EQ(writes_failed, 0);
  EXPECT_EQ(h.initiator->ios_completed(), 8u);
  EXPECT_EQ(h.service->commands_served(), 8u);
  EXPECT_EQ(h.initiator->inflight_count(), 0u);
}

TEST(ReconnectTest, TicketSubmittedAfterTeardownFailsFast) {
  InitiatorOptions iopts = resilient_opts();
  iopts.recovery.max_attempts = 0;  // a fault tears the association down
  ReconnectHarness h(iopts);
  h.sched.run();
  ASSERT_TRUE(h.initiator->supports_zero_copy());
  auto ticket = h.initiator->zero_copy_write_begin(4096);
  ASSERT_TRUE(ticket.is_ok()) << ticket.status().to_string();

  h.initiator->force_recover("test: teardown with a ticket out");
  h.sched.run();
  ASSERT_TRUE(h.initiator->dead());

  int answers = 0;
  pdu::NvmeStatus status = pdu::NvmeStatus::kSuccess;
  h.initiator->zero_copy_write(ticket.value(), 1, 0, 4096,
                               [&](NvmfInitiator::IoResult r) {
                                 answers++;
                                 status = r.cpl.status;
                               });
  h.sched.run();
  EXPECT_EQ(answers, 1);
  EXPECT_EQ(status, pdu::NvmeStatus::kDataTransferError);
  EXPECT_EQ(h.initiator->ios_completed(), 0u);
}

TEST(ReconnectTest, CorruptedReadPayloadWithDigestRetriesInPlace) {
  af::AfConfig cfg = af::AfConfig::stock_tcp();  // inline data PDUs
  cfg.data_digest = true;
  ReconnectHarness h(resilient_opts(cfg), cfg);
  h.sched.run();
  ASSERT_TRUE(h.initiator->connected());
  ASSERT_FALSE(h.initiator->shm_active());

  std::vector<u8> data(4096);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<u8>(i * 13);
  bool wrote = false;
  h.initiator->write(1, 0, data, [&](NvmfInitiator::IoResult r) {
    wrote = r.ok();
  });
  h.sched.run();
  ASSERT_TRUE(wrote);

  // Corrupt the first C2HData payload in flight: the digest mismatch must
  // surface as a retryable transport error and the in-place replay must
  // deliver intact bytes — no reconnect, no application-visible error.
  bool corrupt_next = true;
  h.target_ch->set_fault([&corrupt_next](pdu::Pdu& p) {
    if (corrupt_next && p.type() == pdu::PduType::kC2HData &&
        !p.payload.empty()) {
      p.payload[0] ^= 0xFF;
      corrupt_next = false;
    }
    return true;
  });
  std::vector<u8> out(4096, 0);
  bool read_ok = false;
  h.initiator->read(1, 0, out, [&](NvmfInitiator::IoResult r) {
    read_ok = r.ok();
  });
  h.sched.run();

  EXPECT_TRUE(read_ok);
  EXPECT_EQ(out, data);
  EXPECT_EQ(h.initiator->resilience().digest_errors, 1u);
  EXPECT_GE(h.initiator->resilience().commands_retried, 1u);
  EXPECT_EQ(h.initiator->resilience().reconnects, 0u);
}

TEST(ReconnectTest, CorruptedWritePayloadWithDigestRetriesInPlace) {
  af::AfConfig cfg = af::AfConfig::stock_tcp();
  cfg.data_digest = true;
  ReconnectHarness h(resilient_opts(cfg), cfg);
  h.sched.run();
  ASSERT_TRUE(h.initiator->connected());

  // 16 KiB write: above the in-capsule threshold, so the payload travels in
  // H2CData PDUs (where the digest rides) after the target's R2T.
  bool corrupt_next = true;
  h.client_ch->set_fault([&corrupt_next](pdu::Pdu& p) {
    if (corrupt_next && p.type() == pdu::PduType::kH2CData &&
        !p.payload.empty()) {
      p.payload[7] ^= 0xFF;
      corrupt_next = false;
    }
    return true;
  });
  std::vector<u8> data(16 * 1024);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<u8>(i * 31);
  bool wrote = false;
  h.initiator->write(1, 0, data, [&](NvmfInitiator::IoResult r) {
    wrote = r.ok();
  });
  h.sched.run();
  ASSERT_TRUE(wrote);
  EXPECT_EQ(h.service->find("reconn")->digest_errors(), 1u);
  EXPECT_GE(h.initiator->resilience().commands_retried, 1u);

  // The bytes that landed must be the intact ones.
  std::vector<u8> out(16 * 1024, 0);
  bool read_ok = false;
  h.initiator->read(1, 0, out, [&](NvmfInitiator::IoResult r) {
    read_ok = r.ok();
  });
  h.sched.run();
  EXPECT_TRUE(read_ok);
  EXPECT_EQ(out, data);
}

TEST(ReconnectTest, RetriedCommandLatencySpansAllAttempts) {
  // comm_ns accounting across retries: total_ns must cover first submit to
  // final completion, so a command that timed out once reports at least the
  // command-timeout's worth of latency.
  ReconnectHarness h(resilient_opts());
  h.sched.run();
  ASSERT_TRUE(h.initiator->connected());

  int to_drop = 1;
  h.target_ch->set_fault([&to_drop](pdu::Pdu& p) {
    if (to_drop > 0 && (p.type() == pdu::PduType::kCapsuleResp ||
                        p.type() == pdu::PduType::kC2HData)) {
      to_drop--;
      return false;
    }
    return true;
  });
  std::vector<u8> data(4096);
  NvmfInitiator::IoResult result;
  bool done = false;
  h.initiator->write(1, 0, data, [&](NvmfInitiator::IoResult r) {
    result = r;
    done = true;
  });
  h.sched.run();
  ASSERT_TRUE(done);
  ASSERT_TRUE(result.ok());
  // One timeout (5 ms) elapsed before the replay: the end-to-end latency
  // must include it, and the comm component must never go negative.
  EXPECT_GE(result.total_ns, 5'000'000);
  EXPECT_GE(result.comm_ns(), 0);
  EXPECT_LE(static_cast<DurNs>(result.io_time_ns), result.total_ns);
}

// Acceptance burst: 10k I/Os through a channel dropping 1% of all PDUs in
// both directions, plus one forced mid-run disconnect. Every I/O must
// complete successfully and the read-back must be byte-identical.
TEST(ReconnectTest, TenThousandIoBurstSurvivesLossAndDisconnect) {
  InitiatorOptions iopts{af::AfConfig::oaf(), 16, "reconn", 0, {}};
  iopts.command_timeout_ns = 50'000'000;
  iopts.recovery.max_attempts = 50;
  iopts.recovery.handshake_timeout_ns = 10'000'000;
  iopts.recovery.max_command_retries = 100;
  ReconnectHarness h(iopts);
  h.dial_policy.drop_prob = 0.01;
  h.dial_policy.seed = 42;
  h.sched.run();
  ASSERT_TRUE(h.initiator->connected());
  // The loss policy only kicks in for the burst (the initial handshake
  // above ran clean because dial_policy was set after construction);
  // reconnect handshakes run lossy and must still converge.
  h.client_ch->set_policy({.seed = 42, .drop_prob = 0.01});
  h.target_ch->set_policy({.seed = 43, .drop_prob = 0.01});

  constexpr int kIos = 5000;       // 5k writes + 5k reads
  constexpr u64 kIoBytes = 4096;   // 8 blocks each
  auto pattern = [](int io, size_t byte) {
    return static_cast<u8>((io * 131 + static_cast<int>(byte)) & 0xFF);
  };

  std::vector<std::vector<u8>> wbufs(kIos);
  std::vector<std::vector<u8>> rbufs(kIos);
  int writes_ok = 0;
  int reads_ok = 0;
  int failures = 0;
  bool disconnected_midway = false;

  std::function<void()> start_reads = [&] {
    for (int i = 0; i < kIos; ++i) {
      rbufs[i].assign(kIoBytes, 0);
      h.initiator->read(1, static_cast<u64>(i) * 8, rbufs[i],
                        [&](NvmfInitiator::IoResult r) {
                          (r.ok() ? reads_ok : failures)++;
                        });
    }
  };

  for (int i = 0; i < kIos; ++i) {
    wbufs[i].resize(kIoBytes);
    for (size_t b = 0; b < kIoBytes; ++b) wbufs[i][b] = pattern(i, b);
    h.initiator->write(1, static_cast<u64>(i) * 8, wbufs[i],
                       [&, i](NvmfInitiator::IoResult r) {
                         (r.ok() ? writes_ok : failures)++;
                         if (writes_ok == kIos / 2 && !disconnected_midway) {
                           disconnected_midway = true;
                           h.initiator->force_recover("test: mid-run disconnect");
                         }
                         if (writes_ok + failures == kIos) start_reads();
                       });
  }
  h.sched.run();

  EXPECT_EQ(writes_ok, kIos);
  EXPECT_EQ(reads_ok, kIos);
  EXPECT_EQ(failures, 0);  // zero application-visible errors
  EXPECT_FALSE(h.initiator->dead());
  EXPECT_GE(h.initiator->resilience().reconnects, 1u);
  EXPECT_GE(h.initiator->resilience().commands_retried, 1u);

  int mismatched = 0;
  for (int i = 0; i < kIos; ++i) {
    for (size_t b = 0; b < kIoBytes; ++b) {
      if (rbufs[i][b] != pattern(i, b)) {
        mismatched++;
        break;
      }
    }
  }
  EXPECT_EQ(mismatched, 0);
}

}  // namespace
}  // namespace oaf::nvmf
