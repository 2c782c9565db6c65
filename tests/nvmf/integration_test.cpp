// End-to-end NVMe-oF protocol tests on the functional plane: a real
// initiator and target connected by in-memory channels over one
// deterministic scheduler, with a RealDevice-backed namespace. These cover
// the full adaptive-fabric matrix: shm vs TCP-only, staged vs zero-copy,
// in-capsule vs conservative flow control.
#include <gtest/gtest.h>

#include "af/locality.h"
#include "common/rng.h"
#include "net/pipe_channel.h"
#include "nvmf/initiator.h"
#include "nvmf/target.h"
#include "sim/scheduler.h"
#include "ssd/real_device.h"
#include "ssd/sim_device.h"
#include "telemetry/prof/cost_center.h"

namespace oaf::nvmf {
namespace {

struct Harness {
  // The broker is the per-host helper process: co-located endpoints share
  // one; a remote client has its own broker with a different host token.
  explicit Harness(af::AfConfig cfg, bool co_located = true, u32 queue_depth = 32)
      : target_broker(1),
        remote_broker(2),
        client_broker(co_located ? target_broker : remote_broker),
        device(sched, 512, 1 << 20),
        subsystem("nqn.2026-07.io.oaf:test") {
    (void)subsystem.add_namespace(1, &device);
    auto pair = net::make_pipe_channel_pair(sched, sched);
    client_ch = std::move(pair.first);
    target_ch = std::move(pair.second);

    TargetOptions topts;
    topts.af = cfg;
    topts.connection_name = "itest";
    target = std::make_unique<NvmfTargetConnection>(
        sched, *target_ch, copier, target_broker, subsystem, topts);

    InitiatorOptions iopts;
    iopts.af = cfg;
    iopts.queue_depth = queue_depth;
    iopts.connection_name = "itest";
    initiator = std::make_unique<NvmfInitiator>(sched, *client_ch, copier,
                                                client_broker, iopts);

    bool connected = false;
    initiator->connect([&](Status st) { connected = st.is_ok(); });
    sched.run();
    EXPECT_TRUE(connected);
  }

  sim::Scheduler sched;
  net::InlineCopier copier;
  af::ShmBroker target_broker;
  af::ShmBroker remote_broker;
  af::ShmBroker& client_broker;
  ssd::RealDevice device;
  ssd::Subsystem subsystem;
  std::unique_ptr<net::MsgChannel> client_ch;
  std::unique_ptr<net::MsgChannel> target_ch;
  std::unique_ptr<NvmfTargetConnection> target;
  std::unique_ptr<NvmfInitiator> initiator;
};

std::vector<u8> pattern(u64 n, u8 seed) {
  std::vector<u8> v(n);
  for (u64 i = 0; i < n; ++i) v[i] = static_cast<u8>(seed + i * 7);
  return v;
}

class IoSizeSweep
    : public ::testing::TestWithParam<std::tuple<bool, u64>> {};

TEST_P(IoSizeSweep, WriteReadRoundtrip) {
  const auto [use_shm, io_bytes] = GetParam();
  af::AfConfig cfg = use_shm ? af::AfConfig::oaf() : af::AfConfig::stock_tcp();
  cfg.zero_copy = false;  // staged paths here; zero-copy covered separately
  Harness h(cfg);
  EXPECT_EQ(h.initiator->shm_active(), use_shm);

  const auto data = pattern(io_bytes, 3);
  bool write_ok = false;
  h.initiator->write(1, 100, data, [&](NvmfInitiator::IoResult r) {
    write_ok = r.ok();
  });
  h.sched.run();
  ASSERT_TRUE(write_ok);

  std::vector<u8> out(io_bytes);
  bool read_ok = false;
  h.initiator->read(1, 100, out, [&](NvmfInitiator::IoResult r) {
    read_ok = r.ok();
  });
  h.sched.run();
  ASSERT_TRUE(read_ok);
  EXPECT_EQ(out, data);
}

INSTANTIATE_TEST_SUITE_P(
    ShmAndTcp, IoSizeSweep,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values<u64>(512, 4096, 8192, 16 * 1024,
                                              128 * 1024, 512 * 1024)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) ? "shm" : "tcp") + "_" +
             std::to_string(std::get<1>(info.param)) + "B";
    });

TEST(NvmfIntegrationTest, RemoteClientFallsBackToTcp) {
  Harness h(af::AfConfig::oaf(), /*co_located=*/false);
  EXPECT_FALSE(h.initiator->shm_active());
  EXPECT_FALSE(h.initiator->supports_zero_copy());

  const auto data = pattern(128 * 1024, 9);
  std::vector<u8> out(data.size());
  int ok = 0;
  h.initiator->write(1, 0, data, [&](auto r) { ok += r.ok(); });
  h.sched.run();
  h.initiator->read(1, 0, out, [&](auto r) { ok += r.ok(); });
  h.sched.run();
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(out, data);
}

TEST(NvmfIntegrationTest, ZeroCopyWrite) {
  Harness h(af::AfConfig::oaf());
  ASSERT_TRUE(h.initiator->supports_zero_copy());

  auto ticket = h.initiator->zero_copy_write_begin(64 * 1024);
  ASSERT_TRUE(ticket.is_ok()) << ticket.status().to_string();
  const auto data = pattern(64 * 1024, 21);
  std::copy(data.begin(), data.end(), ticket.value().buffer.begin());

  bool ok = false;
  h.initiator->zero_copy_write(ticket.value(), 1, 500, 64 * 1024,
                               [&](auto r) { ok = r.ok(); });
  h.sched.run();
  ASSERT_TRUE(ok);
  EXPECT_EQ(h.initiator->endpoint().zero_copy_publishes(), 1u);
  EXPECT_EQ(h.initiator->endpoint().staged_copies(), 0u);

  std::vector<u8> out(64 * 1024);
  bool read_ok = false;
  h.initiator->read(1, 500, out, [&](auto r) { read_ok = r.ok(); });
  h.sched.run();
  ASSERT_TRUE(read_ok);
  EXPECT_EQ(out, data);
}

TEST(NvmfIntegrationTest, ZeroCopyRead) {
  Harness h(af::AfConfig::oaf());
  const auto data = pattern(32 * 1024, 5);
  bool wrote = false;
  h.initiator->write(1, 64, data, [&](auto r) { wrote = r.ok(); });
  h.sched.run();
  ASSERT_TRUE(wrote);

  bool checked = false;
  h.initiator->zero_copy_read(
      1, 64, 32 * 1024,
      [&](Result<NvmfInitiator::ReadView> view, NvmfInitiator::IoResult r) {
        ASSERT_TRUE(view.is_ok()) << view.status().to_string();
        EXPECT_TRUE(r.ok());
        ASSERT_EQ(view.value().data.size(), 32u * 1024);
        EXPECT_TRUE(std::equal(data.begin(), data.end(),
                               view.value().data.begin()));
        view.value().release();
        checked = true;
      });
  h.sched.run();
  EXPECT_TRUE(checked);
  // Slot reclaimed: a follow-up I/O on the same cid space works.
  bool again = false;
  std::vector<u8> out(1024);
  h.initiator->read(1, 64, out, [&](auto r) { again = r.ok(); });
  h.sched.run();
  EXPECT_TRUE(again);
}

TEST(NvmfIntegrationTest, ZeroCopyReadCompletesLikeAnyOtherRead) {
  Harness h(af::AfConfig::oaf());
  // A namespace with service time, so the read takes nonzero virtual time.
  ssd::SimDeviceParams params;
  params.num_blocks = 1 << 12;
  ssd::SimDevice timed(h.sched, params);
  ASSERT_TRUE(h.subsystem.add_namespace(2, &timed).is_ok());
  auto& cycles = telemetry::prof::cycle_ledger();
  cycles.reset_for_test();
  cycles.set_enabled(true);
  bool checked = false;
  h.initiator->zero_copy_read(
      2, 64, 4096,
      [&](Result<NvmfInitiator::ReadView> view, NvmfInitiator::IoResult r) {
        ASSERT_TRUE(view.is_ok()) << view.status().to_string();
        EXPECT_TRUE(r.ok());
        view.value().release();
        checked = true;
      });
  h.sched.run();
  const u64 ios = cycles.snapshot().ios;
  cycles.set_enabled(false);
  cycles.reset_for_test();
  ASSERT_TRUE(checked);
  // The read fed the cycles/IO denominator, the path's latency EWMA and the
  // completion count, exactly as a staged read does.
  EXPECT_EQ(ios, 1u);
  EXPECT_GT(h.initiator->latency_ewma_ns(), 0);
  EXPECT_EQ(h.initiator->ios_completed(), 1u);
}

TEST(NvmfIntegrationTest, FlushAndIdentify) {
  Harness h(af::AfConfig::oaf());
  bool flushed = false;
  h.initiator->flush(1, [&](auto r) { flushed = r.ok(); });
  h.sched.run();
  EXPECT_TRUE(flushed);

  bool identified = false;
  h.initiator->identify(1, [&](Result<std::pair<u32, u64>> r) {
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    EXPECT_EQ(r.value().first, 512u);
    EXPECT_EQ(r.value().second, 1u << 20);
    identified = true;
  });
  h.sched.run();
  EXPECT_TRUE(identified);
}

TEST(NvmfIntegrationTest, InvalidNamespaceRejected) {
  Harness h(af::AfConfig::oaf());
  std::vector<u8> out(512);
  pdu::NvmeStatus status = pdu::NvmeStatus::kSuccess;
  h.initiator->read(99, 0, out, [&](auto r) { status = r.cpl.status; });
  h.sched.run();
  EXPECT_EQ(status, pdu::NvmeStatus::kInvalidNamespace);
}

TEST(NvmfIntegrationTest, OutOfRangeLbaReported) {
  Harness h(af::AfConfig::oaf());
  std::vector<u8> buf(512);
  pdu::NvmeStatus status = pdu::NvmeStatus::kSuccess;
  h.initiator->write(1, (1ull << 20) + 5, buf, [&](auto r) {
    status = r.cpl.status;
  });
  h.sched.run();
  EXPECT_EQ(status, pdu::NvmeStatus::kLbaOutOfRange);
}

TEST(NvmfIntegrationTest, QueueDepthOverflowQueuesInternally) {
  Harness h(af::AfConfig::oaf(), true, /*queue_depth=*/4);
  const auto data = pattern(4096, 1);
  int completed = 0;
  constexpr int kTotal = 50;
  for (int i = 0; i < kTotal; ++i) {
    h.initiator->write(1, static_cast<u64>(i) * 8, data,
                       [&](auto r) { completed += r.ok(); });
  }
  h.sched.run();
  EXPECT_EQ(completed, kTotal);
  EXPECT_EQ(h.initiator->ios_completed(), static_cast<u64>(kTotal));
  EXPECT_EQ(h.target->commands_served(), static_cast<u64>(kTotal));
}

TEST(NvmfIntegrationTest, ManyMixedIosDataIntegrity) {
  Harness h(af::AfConfig::oaf());
  Rng rng(42);
  std::unordered_map<u64, std::vector<u8>> shadow;
  int outstanding = 0;
  // Write phase: random blocks.
  for (int i = 0; i < 200; ++i) {
    const u64 slba = rng.next_below(1000) * 64;
    const u64 bytes = (1 + rng.next_below(64)) * 512;
    auto data = std::make_shared<std::vector<u8>>(bytes);
    for (auto& b : *data) b = static_cast<u8>(rng.next_u64());
    for (u64 blk = 0; blk < bytes / 512; ++blk) {
      shadow[slba + blk] = std::vector<u8>(
          data->begin() + static_cast<long>(blk * 512),
          data->begin() + static_cast<long>((blk + 1) * 512));
    }
    outstanding++;
    h.initiator->write(1, slba, *data, [&outstanding, data](auto r) {
      EXPECT_TRUE(r.ok());
      outstanding--;
    });
    // Interleave: drain periodically to mix orderings.
    if (i % 7 == 0) h.sched.run();
  }
  h.sched.run();
  EXPECT_EQ(outstanding, 0);

  // Read-back phase verifies against the shadow model.
  int checked = 0;
  for (const auto& [lba, expect] : shadow) {
    auto out = std::make_shared<std::vector<u8>>(512);
    h.initiator->read(1, lba, *out, [&checked, out, expect = expect](auto r) {
      EXPECT_TRUE(r.ok());
      EXPECT_EQ(*out, expect);
      checked++;
    });
  }
  h.sched.run();
  EXPECT_EQ(checked, static_cast<int>(shadow.size()));
}

TEST(NvmfIntegrationTest, LatencyInstrumentationPlausible) {
  Harness h(af::AfConfig::oaf());
  const auto data = pattern(128 * 1024, 2);
  NvmfInitiator::IoResult res;
  h.initiator->write(1, 0, data, [&](auto r) { res = r; });
  h.sched.run();
  ASSERT_TRUE(res.ok());
  EXPECT_GE(res.total_ns, 0);
  EXPECT_GE(res.comm_ns(), 0);
  // io + target + comm <= total by construction.
  EXPECT_LE(static_cast<DurNs>(res.io_time_ns + res.target_time_ns),
            res.total_ns);
}

TEST(NvmfIntegrationTest, ConservativeFlowOnShmStillCorrect) {
  // Ablation config: shm channel present, R2T flow retained.
  af::AfConfig cfg = af::AfConfig::oaf();
  cfg.flow_control = af::FlowControlMode::kConservative;
  cfg.zero_copy = false;
  Harness h(cfg);
  ASSERT_TRUE(h.initiator->shm_active());

  const auto data = pattern(256 * 1024, 8);
  std::vector<u8> out(data.size());
  int ok = 0;
  h.initiator->write(1, 0, data, [&](auto r) { ok += r.ok(); });
  h.sched.run();
  h.initiator->read(1, 0, out, [&](auto r) { ok += r.ok(); });
  h.sched.run();
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(out, data);
  EXPECT_GT(h.target->r2ts_sent(), 0u);
}

TEST(NvmfIntegrationTest, EncryptedShmEndToEnd) {
  af::AfConfig cfg = af::AfConfig::oaf();
  cfg.encrypt_shm = true;
  cfg.shm_key = 0x5EC12E7;
  Harness h(cfg);
  ASSERT_TRUE(h.initiator->shm_active());
  EXPECT_FALSE(h.initiator->supports_zero_copy());  // demoted by encryption

  const auto data = pattern(128 * 1024, 77);
  std::vector<u8> out(data.size());
  int ok = 0;
  h.initiator->write(1, 64, data, [&](auto r) { ok += r.ok(); });
  h.sched.run();
  h.initiator->read(1, 64, out, [&](auto r) { ok += r.ok(); });
  h.sched.run();
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(out, data);
}

}  // namespace
}  // namespace oaf::nvmf
