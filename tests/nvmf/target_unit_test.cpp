// Target-side protocol unit tests: drive the target connection directly
// with hand-built PDUs (no initiator) and assert its responses — the
// surface a (possibly hostile) remote peer controls.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "af/locality.h"
#include "net/sim_channel.h"
#include "nvmf/target.h"
#include "sim/scheduler.h"
#include "ssd/real_device.h"

namespace oaf::nvmf {
namespace {

struct TargetHarness {
  explicit TargetHarness(af::AfConfig cfg = af::AfConfig::stock_tcp())
      : broker(1), device(sched, 512, 4096), subsystem("nqn.unit") {
    (void)subsystem.add_namespace(1, &device);
    auto pair = net::make_instant_channel_pair(sched);
    peer = std::move(pair.first);    // we play the client
    target_ch = std::move(pair.second);
    target = std::make_unique<NvmfTargetConnection>(
        sched, *target_ch, copier, broker, subsystem,
        TargetOptions{cfg, "unit"});
    peer->set_handler([this](pdu::Pdu p) { received.push_back(std::move(p)); });
  }

  void send(pdu::Pdu p) {
    peer->send(std::move(p));
    sched.run();
  }

  /// First received PDU of a type, or nullptr.
  template <typename T>
  const T* find() const {
    for (const auto& p : received) {
      if (const T* h = p.as<T>()) return h;
    }
    return nullptr;
  }

  sim::Scheduler sched;
  net::InlineCopier copier;
  af::ShmBroker broker;
  ssd::RealDevice device;
  ssd::Subsystem subsystem;
  std::unique_ptr<net::MsgChannel> peer;
  std::unique_ptr<net::MsgChannel> target_ch;
  std::unique_ptr<NvmfTargetConnection> target;
  std::vector<pdu::Pdu> received;
};

pdu::Pdu icreq(u64 token, bool want_shm) {
  pdu::ICReq req;
  req.pfv = 1;
  req.node_token = token;
  req.want_shm = want_shm;
  pdu::Pdu p;
  p.header = req;
  return p;
}

TEST(TargetUnitTest, HandshakeRespondsWithICResp) {
  TargetHarness h;
  h.send(icreq(1, false));
  const auto* resp = h.find<pdu::ICResp>();
  ASSERT_NE(resp, nullptr);
  EXPECT_FALSE(resp->shm_granted);  // stock config never grants
  EXPECT_GT(resp->maxh2cdata, 0u);
}

TEST(TargetUnitTest, ShmGrantRequiresMatchingToken) {
  TargetHarness h(af::AfConfig::oaf());
  h.send(icreq(/*token=*/999, /*want_shm=*/true));  // wrong host
  const auto* resp = h.find<pdu::ICResp>();
  ASSERT_NE(resp, nullptr);
  EXPECT_FALSE(resp->shm_granted);
  EXPECT_FALSE(h.target->shm_active());
}

TEST(TargetUnitTest, ReadReturnsDataAndCompletion) {
  TargetHarness h;
  h.send(icreq(1, false));
  h.received.clear();

  pdu::CapsuleCmd cmd;
  cmd.cmd.opcode = pdu::NvmeOpcode::kRead;
  cmd.cmd.cid = 3;
  cmd.cmd.nsid = 1;
  cmd.cmd.slba = 0;
  cmd.cmd.nlb = 7;  // 8 blocks = 4096 B
  pdu::Pdu p;
  p.header = cmd;
  h.send(std::move(p));

  const auto* data = h.find<pdu::C2HData>();
  ASSERT_NE(data, nullptr);
  EXPECT_EQ(data->cid, 3);
  EXPECT_EQ(data->length, 4096u);
  EXPECT_EQ(data->placement, pdu::DataPlacement::kInline);
  const auto* resp = h.find<pdu::CapsuleResp>();
  ASSERT_NE(resp, nullptr);  // stock mode keeps the separate completion
  EXPECT_TRUE(resp->cpl.ok());
}

TEST(TargetUnitTest, LargeWriteGetsR2T) {
  TargetHarness h;
  h.send(icreq(1, false));
  h.received.clear();

  pdu::CapsuleCmd cmd;
  cmd.cmd.opcode = pdu::NvmeOpcode::kWrite;
  cmd.cmd.cid = 4;
  cmd.cmd.nsid = 1;
  cmd.cmd.nlb = 63;  // 32 KiB > 8 KiB threshold
  cmd.in_capsule_data = false;
  cmd.data_len = 64 * 512;
  pdu::Pdu p;
  p.header = cmd;
  h.send(std::move(p));

  const auto* r2t = h.find<pdu::R2T>();
  ASSERT_NE(r2t, nullptr);
  EXPECT_EQ(r2t->cid, 4);
  EXPECT_EQ(r2t->length, 64u * 512);
  EXPECT_EQ(h.target->r2ts_sent(), 1u);
}

TEST(TargetUnitTest, WriteLengthMismatchRejected) {
  TargetHarness h;
  h.send(icreq(1, false));
  h.received.clear();

  pdu::CapsuleCmd cmd;
  cmd.cmd.opcode = pdu::NvmeOpcode::kWrite;
  cmd.cmd.cid = 5;
  cmd.cmd.nsid = 1;
  cmd.cmd.nlb = 7;         // claims 4096 B
  cmd.in_capsule_data = true;
  cmd.data_len = 512;      // but advertises 512
  pdu::Pdu p;
  p.header = cmd;
  p.payload.resize(512);
  h.send(std::move(p));

  const auto* resp = h.find<pdu::CapsuleResp>();
  ASSERT_NE(resp, nullptr);
  EXPECT_EQ(resp->cpl.status, pdu::NvmeStatus::kInvalidField);
}

TEST(TargetUnitTest, InCapsulePayloadSizeMismatchRejected) {
  TargetHarness h;
  h.send(icreq(1, false));
  h.received.clear();

  pdu::CapsuleCmd cmd;
  cmd.cmd.opcode = pdu::NvmeOpcode::kWrite;
  cmd.cmd.cid = 6;
  cmd.cmd.nsid = 1;
  cmd.cmd.nlb = 7;
  cmd.in_capsule_data = true;
  cmd.data_len = 4096;
  pdu::Pdu p;
  p.header = cmd;
  p.payload.resize(100);  // lies about the payload
  h.send(std::move(p));

  const auto* resp = h.find<pdu::CapsuleResp>();
  ASSERT_NE(resp, nullptr);
  EXPECT_EQ(resp->cpl.status, pdu::NvmeStatus::kDataTransferError);
}

TEST(TargetUnitTest, UnknownNamespaceRejected) {
  TargetHarness h;
  h.send(icreq(1, false));
  h.received.clear();

  pdu::CapsuleCmd cmd;
  cmd.cmd.opcode = pdu::NvmeOpcode::kRead;
  cmd.cmd.cid = 7;
  cmd.cmd.nsid = 42;
  pdu::Pdu p;
  p.header = cmd;
  h.send(std::move(p));

  const auto* resp = h.find<pdu::CapsuleResp>();
  ASSERT_NE(resp, nullptr);
  EXPECT_EQ(resp->cpl.status, pdu::NvmeStatus::kInvalidNamespace);
}

TEST(TargetUnitTest, H2CDataForUnknownCidTerminates) {
  TargetHarness h;
  h.send(icreq(1, false));
  h.received.clear();

  pdu::H2CData h2c;
  h2c.cid = 99;
  h2c.length = 512;
  pdu::Pdu p;
  p.header = h2c;
  p.payload.resize(512);
  h.send(std::move(p));

  const auto* term = h.find<pdu::TermReq>();
  ASSERT_NE(term, nullptr);
  EXPECT_FALSE(term->from_host);
}

TEST(TargetUnitTest, H2COverflowRejectedPerCommand) {
  TargetHarness h;
  h.send(icreq(1, false));
  h.received.clear();

  // Open a conservative write of 32 KiB...
  pdu::CapsuleCmd cmd;
  cmd.cmd.opcode = pdu::NvmeOpcode::kWrite;
  cmd.cmd.cid = 8;
  cmd.cmd.nsid = 1;
  cmd.cmd.nlb = 63;
  cmd.data_len = 64 * 512;
  pdu::Pdu p;
  p.header = cmd;
  h.send(std::move(p));
  h.received.clear();

  // ...then send a chunk that runs past the granted buffer.
  pdu::H2CData h2c;
  h2c.cid = 8;
  h2c.offset = 30 * 1024;
  h2c.length = 8 * 1024;  // 30K + 8K > 32K
  pdu::Pdu d;
  d.header = h2c;
  d.payload.resize(8 * 1024);
  h.send(std::move(d));

  const auto* resp = h.find<pdu::CapsuleResp>();
  ASSERT_NE(resp, nullptr);
  EXPECT_EQ(resp->cpl.status, pdu::NvmeStatus::kDataTransferError);
}

TEST(TargetUnitTest, H2CWrappingOffsetRejectedPerCommand) {
  TargetHarness h;
  h.send(icreq(1, false));
  h.received.clear();

  pdu::CapsuleCmd cmd;
  cmd.cmd.opcode = pdu::NvmeOpcode::kWrite;
  cmd.cmd.cid = 8;
  cmd.cmd.nsid = 1;
  cmd.cmd.nlb = 63;
  cmd.data_len = 64 * 512;
  pdu::Pdu p;
  p.header = cmd;
  h.send(std::move(p));
  h.received.clear();

  // offset + length wraps u64 to 1024, which a summing bounds check would
  // wave through into a write 1 KiB before the staging buffer.
  pdu::H2CData h2c;
  h2c.cid = 8;
  h2c.offset = ~u64{0} - 1023;  // 2^64 - 1024
  h2c.length = 2048;
  pdu::Pdu d;
  d.header = h2c;
  d.payload.resize(2048);
  h.send(std::move(d));

  const auto* resp = h.find<pdu::CapsuleResp>();
  ASSERT_NE(resp, nullptr);
  EXPECT_EQ(resp->cpl.status, pdu::NvmeStatus::kDataTransferError);
  EXPECT_EQ(h.target->inflight_now(), 0u);
}

TEST(TargetUnitTest, OutOfOrderH2CDataFailsTheWrite) {
  // Each chunk must start where the last accepted one ended. An overlapping
  // chunk and a chunk that skips ahead each pass range_fits, and with their
  // siblings add up to the command's length, yet would leave part of the
  // staging buffer unwritten: both fail their write before the device.
  TargetHarness h;
  h.send(icreq(1, false));
  auto r2t_write = [&h](u16 cid, u64 slba) {
    pdu::CapsuleCmd cmd;
    cmd.cmd.opcode = pdu::NvmeOpcode::kWrite;
    cmd.cmd.cid = cid;
    cmd.cmd.nsid = 1;
    cmd.cmd.slba = slba;
    cmd.cmd.nlb = 63;  // 32 KiB > 8 KiB threshold: R2T flow
    cmd.data_len = 64 * 512;
    pdu::Pdu p;
    p.header = cmd;
    h.send(std::move(p));
  };
  auto h2c = [&h](u16 cid, u64 offset, u8 fill) {
    pdu::H2CData d;
    d.cid = cid;
    d.offset = offset;
    d.length = 16 * 1024;
    pdu::Pdu p;
    p.header = d;
    p.payload.assign(16 * 1024, fill);
    h.send(std::move(p));
  };
  auto resp_of = [&h](u16 cid) -> const pdu::CapsuleResp* {
    for (const auto& p : h.received) {
      const auto* r = p.as<pdu::CapsuleResp>();
      if (r != nullptr && r->cpl.cid == cid) return r;
    }
    return nullptr;
  };
  r2t_write(1, 0);
  h2c(1, 0, 0xAB);
  h2c(1, 0, 0xAB);  // overlaps the first chunk
  r2t_write(2, 64);
  h2c(2, 16 * 1024, 0xCD);  // skips the first 16 KiB
  for (const u16 cid : {1, 2}) {
    const auto* r = resp_of(cid);
    ASSERT_NE(r, nullptr) << "cid " << cid;
    EXPECT_EQ(r->cpl.status, pdu::NvmeStatus::kDataTransferError);
  }
  EXPECT_EQ(h.target->inflight_now(), 0u);

  // Neither write reached the device: both ranges still read as zeros.
  h.received.clear();
  pdu::CapsuleCmd read;
  read.cmd.opcode = pdu::NvmeOpcode::kRead;
  read.cmd.cid = 3;
  read.cmd.nsid = 1;
  read.cmd.slba = 0;
  read.cmd.nlb = 127;
  pdu::Pdu p;
  p.header = read;
  h.send(std::move(p));
  std::vector<u8> data(64 * 1024, 0xEE);
  u64 got = 0;
  for (const auto& d : h.received) {
    if (const auto* c2h = d.as<pdu::C2HData>()) {
      ASSERT_TRUE(pdu::range_fits(c2h->offset, d.payload.size(), data.size()));
      std::copy(d.payload.begin(), d.payload.end(),
                data.begin() + static_cast<std::ptrdiff_t>(c2h->offset));
      got += d.payload.size();
    }
  }
  ASSERT_EQ(got, data.size());
  for (u64 i = 0; i < data.size(); ++i) {
    ASSERT_EQ(data[i], 0x00) << "byte " << i;
  }
}

TEST(TargetUnitTest, IdentifyReportsGeometry) {
  TargetHarness h;
  h.send(icreq(1, false));
  h.received.clear();

  pdu::CapsuleCmd cmd;
  cmd.cmd.opcode = pdu::NvmeOpcode::kIdentify;
  cmd.cmd.cid = 9;
  cmd.cmd.nsid = 1;
  pdu::Pdu p;
  p.header = cmd;
  h.send(std::move(p));

  ASSERT_FALSE(h.received.empty());
  const auto& resp_pdu = h.received.front();
  const auto* resp = resp_pdu.as<pdu::CapsuleResp>();
  ASSERT_NE(resp, nullptr);
  ASSERT_EQ(resp_pdu.payload.size(), 12u);
  u32 bs = 0;
  for (int i = 0; i < 4; ++i) bs |= static_cast<u32>(resp_pdu.payload[i]) << (8 * i);
  EXPECT_EQ(bs, 512u);
}

TEST(TargetUnitTest, ShmCapsuleWithoutChannelRejected) {
  // Claim shm placement on a connection that never negotiated shm.
  TargetHarness h;
  h.send(icreq(1, false));
  h.received.clear();

  pdu::CapsuleCmd cmd;
  cmd.cmd.opcode = pdu::NvmeOpcode::kWrite;
  cmd.cmd.cid = 10;
  cmd.cmd.nsid = 1;
  cmd.cmd.nlb = 7;
  cmd.in_capsule_data = true;
  cmd.placement = pdu::DataPlacement::kShmSlot;
  cmd.shm_slot = 0;
  cmd.data_len = 4096;
  pdu::Pdu p;
  p.header = cmd;
  h.send(std::move(p));

  const auto* resp = h.find<pdu::CapsuleResp>();
  ASSERT_NE(resp, nullptr);
  EXPECT_EQ(resp->cpl.status, pdu::NvmeStatus::kDataTransferError);
}

}  // namespace
}  // namespace oaf::nvmf
