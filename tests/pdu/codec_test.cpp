#include "pdu/codec.h"

#include <gtest/gtest.h>

#include "pdu/wire_contract.h"

namespace oaf::pdu {
namespace {

template <typename T>
Pdu roundtrip(const T& header, std::vector<u8> payload = {},
              const CodecOptions& opts = {}) {
  Pdu in;
  in.header = header;
  in.payload = std::move(payload);
  const auto encoded = encode(in, opts);
  auto decoded = decode(encoded, opts);
  EXPECT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  return decoded.is_ok() ? std::move(decoded).take() : Pdu{};
}

TEST(CodecTest, ICReqRoundtrip) {
  ICReq req;
  req.pfv = 1;
  req.hpda = 3;
  req.header_digest = true;
  req.maxr2t = 16;
  req.node_token = 0xDEADBEEFCAFEF00DULL;
  req.want_shm = true;
  const Pdu out = roundtrip(req);
  const auto* h = out.as<ICReq>();
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->pfv, 1);
  EXPECT_EQ(h->hpda, 3);
  EXPECT_TRUE(h->header_digest);
  EXPECT_EQ(h->maxr2t, 16u);
  EXPECT_EQ(h->node_token, 0xDEADBEEFCAFEF00DULL);
  EXPECT_TRUE(h->want_shm);
}

TEST(CodecTest, ICRespRoundtripWithName) {
  ICResp resp;
  resp.pfv = 1;
  resp.maxh2cdata = 512 * 1024;
  resp.shm_granted = true;
  resp.shm_bytes = 64ull << 20;
  resp.shm_slots = 128;
  resp.shm_name = "tenant3/conn-17";
  const Pdu out = roundtrip(resp);
  const auto* h = out.as<ICResp>();
  ASSERT_NE(h, nullptr);
  EXPECT_TRUE(h->shm_granted);
  EXPECT_EQ(h->shm_bytes, 64ull << 20);
  EXPECT_EQ(h->shm_slots, 128u);
  EXPECT_EQ(h->shm_name, "tenant3/conn-17");
  EXPECT_TRUE(h->admitted);
}

TEST(CodecTest, ICRespAdmissionRejectRoundtrip) {
  ICResp resp;
  resp.pfv = 1;
  resp.admitted = false;
  resp.retry_after_ms = 250;
  resp.reject_reason = "connection limit reached";
  const Pdu out = roundtrip(resp);
  const auto* h = out.as<ICResp>();
  ASSERT_NE(h, nullptr);
  EXPECT_FALSE(h->admitted);
  EXPECT_EQ(h->retry_after_ms, 250u);
  EXPECT_EQ(h->reject_reason, "connection limit reached");
}

TEST(CodecTest, CapsuleCmdRoundtripWithPayload) {
  CapsuleCmd c;
  c.cmd.opcode = NvmeOpcode::kWrite;
  c.cmd.cid = 77;
  c.cmd.nsid = 2;
  c.cmd.slba = 123456789;
  c.cmd.nlb = 255;
  c.in_capsule_data = true;
  c.placement = DataPlacement::kInline;
  c.data_len = 4096;
  std::vector<u8> payload(4096);
  for (size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<u8>(i * 7);
  const Pdu out = roundtrip(c, payload);
  const auto* h = out.as<CapsuleCmd>();
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->cmd.opcode, NvmeOpcode::kWrite);
  EXPECT_EQ(h->cmd.cid, 77);
  EXPECT_EQ(h->cmd.slba, 123456789u);
  EXPECT_EQ(h->cmd.blocks(), 256u);
  EXPECT_TRUE(h->in_capsule_data);
  EXPECT_EQ(out.payload, payload);
}

TEST(CodecTest, CapsuleCmdShmSlotRoundtrip) {
  CapsuleCmd c;
  c.cmd.opcode = NvmeOpcode::kWrite;
  c.placement = DataPlacement::kShmSlot;
  c.in_capsule_data = true;
  c.shm_slot = 93;
  c.data_len = 128 * 1024;
  const Pdu out = roundtrip(c);
  const auto* h = out.as<CapsuleCmd>();
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->placement, DataPlacement::kShmSlot);
  EXPECT_EQ(h->shm_slot, 93u);
  EXPECT_EQ(h->data_len, 128u * 1024);
  EXPECT_TRUE(out.payload.empty());  // shm reference carries no inline bytes
}

TEST(CodecTest, CapsuleRespRoundtrip) {
  CapsuleResp r;
  r.cpl.cid = 3;
  r.cpl.status = NvmeStatus::kLbaOutOfRange;
  r.cpl.result = 42;
  r.io_time_ns = 123456;
  r.target_time_ns = 789;
  const Pdu out = roundtrip(r);
  const auto* h = out.as<CapsuleResp>();
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->cpl.cid, 3);
  EXPECT_EQ(h->cpl.status, NvmeStatus::kLbaOutOfRange);
  EXPECT_FALSE(h->cpl.ok());
  EXPECT_EQ(h->io_time_ns, 123456u);
  EXPECT_EQ(h->target_time_ns, 789u);
}

TEST(CodecTest, R2TRoundtrip) {
  R2T r;
  r.cid = 9;
  r.ttag = 12;
  r.offset = 1 << 20;
  r.length = 512 * 1024;
  const Pdu out = roundtrip(r);
  const auto* h = out.as<R2T>();
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->cid, 9);
  EXPECT_EQ(h->ttag, 12);
  EXPECT_EQ(h->offset, 1u << 20);
  EXPECT_EQ(h->length, 512u * 1024);
}

TEST(CodecTest, H2CDataRoundtrip) {
  H2CData h2c;
  h2c.cid = 4;
  h2c.ttag = 4;
  h2c.offset = 128 * 1024;
  h2c.length = 64 * 1024;
  h2c.last = false;
  h2c.placement = DataPlacement::kShmSlot;
  h2c.shm_slot = 17;
  const Pdu out = roundtrip(h2c);
  const auto* h = out.as<H2CData>();
  ASSERT_NE(h, nullptr);
  EXPECT_FALSE(h->last);
  EXPECT_EQ(h->placement, DataPlacement::kShmSlot);
  EXPECT_EQ(h->shm_slot, 17u);
}

TEST(CodecTest, C2HDataSuccessFlagRoundtrip) {
  C2HData c2h;
  c2h.cid = 21;
  c2h.length = 4096;
  c2h.last = true;
  c2h.success = true;
  c2h.io_time_ns = 55'000;
  c2h.target_time_ns = 2'000;
  const Pdu out = roundtrip(c2h);
  const auto* h = out.as<C2HData>();
  ASSERT_NE(h, nullptr);
  EXPECT_TRUE(h->success);
  EXPECT_EQ(h->io_time_ns, 55'000u);
}

TEST(CodecTest, ResilienceFieldsRoundtrip) {
  // The attempt tag and digest ride every data-path PDU.
  CapsuleCmd c;
  c.cmd.cid = 5;
  c.gen = 0xBEEF;
  EXPECT_EQ(roundtrip(c).as<CapsuleCmd>()->gen, 0xBEEF);

  CapsuleResp r;
  r.cpl.cid = 5;
  r.gen = 0xBEEF;
  EXPECT_EQ(roundtrip(r).as<CapsuleResp>()->gen, 0xBEEF);

  R2T r2t;
  r2t.cid = 5;
  r2t.gen = 7;
  EXPECT_EQ(roundtrip(r2t).as<R2T>()->gen, 7);

  H2CData h2c;
  h2c.cid = 5;
  h2c.gen = 7;
  h2c.data_digest = 0xDEADBEEF;
  const Pdu h_pdu = roundtrip(h2c);
  const auto* h = h_pdu.as<H2CData>();
  EXPECT_EQ(h->gen, 7);
  EXPECT_EQ(h->data_digest, 0xDEADBEEFu);

  C2HData c2h;
  c2h.cid = 5;
  c2h.gen = 9;
  c2h.data_digest = 0x12345678;
  const Pdu ch_pdu = roundtrip(c2h);
  const auto* ch = ch_pdu.as<C2HData>();
  EXPECT_EQ(ch->gen, 9);
  EXPECT_EQ(ch->data_digest, 0x12345678u);
}

TEST(CodecTest, AbortCapsuleRoundtrip) {
  // Abort reuses the command capsule: the victim rides in abort_cid with its
  // attempt tag (0 = any attempt of that cid).
  CapsuleCmd c;
  c.cmd.opcode = NvmeOpcode::kAbort;
  c.cmd.cid = 0xF003;  // abort cids live in their own namespace
  c.cmd.abort_cid = 5;
  c.cmd.abort_gen = 0x1234;
  const Pdu out = roundtrip(c);
  const auto* h = out.as<CapsuleCmd>();
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->cmd.opcode, NvmeOpcode::kAbort);
  EXPECT_EQ(h->cmd.cid, 0xF003);
  EXPECT_EQ(h->cmd.abort_cid, 5);
  EXPECT_EQ(h->cmd.abort_gen, 0x1234);
  EXPECT_TRUE(out.payload.empty());
}

TEST(CodecTest, ICReqKatoAndDigestRoundtrip) {
  ICReq req;
  req.pfv = 1;
  req.data_digest = true;
  req.kato_ns = 15'000'000'000ull;
  const Pdu h_pdu = roundtrip(req);
  const auto* h = h_pdu.as<ICReq>();
  ASSERT_NE(h, nullptr);
  EXPECT_TRUE(h->data_digest);
  EXPECT_EQ(h->kato_ns, 15'000'000'000ull);

  ICResp resp;
  resp.pfv = 1;
  resp.data_digest = true;
  EXPECT_TRUE(roundtrip(resp).as<ICResp>()->data_digest);
}

TEST(CodecTest, KeepAliveRoundtrip) {
  for (bool from_host : {true, false}) {
    KeepAlive ka;
    ka.from_host = from_host;
    ka.seq = 42;
    const Pdu out = roundtrip(ka);
    const auto* h = out.as<KeepAlive>();
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->from_host, from_host);
    EXPECT_EQ(h->seq, 42u);
    EXPECT_EQ(out.type(), PduType::kKeepAlive);
  }
}

TEST(CodecTest, ShmDemoteRoundtrip) {
  ShmDemote d;
  d.reason = "checksum storm on ring";
  const Pdu out = roundtrip(d);
  const auto* h = out.as<ShmDemote>();
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->reason, "checksum storm on ring");
  EXPECT_EQ(out.type(), PduType::kShmDemote);
}

TEST(CodecTest, AnaLogRoundtrip) {
  for (AnaState s : {AnaState::kOptimized, AnaState::kNonOptimized,
                     AnaState::kInaccessible}) {
    AnaLog log;
    log.state = s;
    log.change_seq = 42;
    log.reason = "admin drain";
    const Pdu out = roundtrip(log);
    const auto* h = out.as<AnaLog>();
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->state, s);
    EXPECT_EQ(h->change_seq, 42u);
    EXPECT_EQ(h->reason, "admin drain");
    EXPECT_EQ(out.type(), PduType::kAnaLog);
  }
}

TEST(CodecTest, TermReqRoundtripBothDirections) {
  for (bool from_host : {true, false}) {
    TermReq t;
    t.from_host = from_host;
    t.fes = 2;
    t.reason = "protocol violation";
    const Pdu out = roundtrip(t);
    const auto* h = out.as<TermReq>();
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->from_host, from_host);
    EXPECT_EQ(h->reason, "protocol violation");
    EXPECT_EQ(out.type(),
              from_host ? PduType::kH2CTermReq : PduType::kC2HTermReq);
  }
}

TEST(CodecTest, HeaderDigestRoundtrip) {
  CodecOptions opts;
  opts.header_digest = true;
  R2T r;
  r.cid = 1;
  const Pdu out = roundtrip(r, {}, opts);
  EXPECT_NE(out.as<R2T>(), nullptr);
}

TEST(CodecTest, HeaderDigestDetectsCorruption) {
  CodecOptions opts;
  opts.header_digest = true;
  Pdu in;
  R2T r;
  r.cid = 1;
  r.offset = 999;
  in.header = r;
  auto encoded = encode(in, opts);
  encoded[9] ^= 0xFF;  // corrupt a typed-header byte
  auto decoded = decode(encoded, opts);
  ASSERT_FALSE(decoded.is_ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

TEST(CodecTest, DigestFlagMismatchRejected) {
  Pdu in;
  in.header = R2T{};
  const auto plain = encode(in, {});
  CodecOptions with_digest;
  with_digest.header_digest = true;
  EXPECT_FALSE(decode(plain, with_digest).is_ok());
}

TEST(CodecTest, FrameLengthMatchesEncodedSize) {
  Pdu in;
  CapsuleCmd c;
  c.cmd.opcode = NvmeOpcode::kRead;
  in.header = c;
  in.payload.resize(1000, 0xAB);
  const auto encoded = encode(in);
  auto len = frame_length(encoded);
  ASSERT_TRUE(len.is_ok());
  EXPECT_EQ(len.value(), encoded.size());
}

TEST(CodecTest, FrameLengthShortPrefixRejected) {
  std::vector<u8> short_buf(4, 0);
  EXPECT_FALSE(frame_length(short_buf).is_ok());
}

TEST(CodecTest, TruncatedPduRejected) {
  Pdu in;
  in.header = R2T{};
  auto encoded = encode(in);
  encoded.pop_back();
  EXPECT_FALSE(decode(encoded, {}).is_ok());
}

TEST(CodecTest, OversizeLengthFieldRejected) {
  Pdu in;
  in.header = R2T{};
  auto encoded = encode(in);
  // Claim a gigantic plen.
  encoded[4] = 0xFF;
  encoded[5] = 0xFF;
  encoded[6] = 0xFF;
  encoded[7] = 0x7F;
  EXPECT_FALSE(decode(encoded, {}).is_ok());
  EXPECT_FALSE(frame_length(encoded).is_ok());
}

TEST(CodecTest, WireSizeMatchesEncodedBytes) {
  Pdu in;
  C2HData c;
  c.length = 4096;
  in.header = c;
  in.payload.resize(4096, 1);
  EXPECT_EQ(wire_size(in), encode(in).size());
}

TEST(CodecTest, EncoderMatchesWireContract) {
  // Pins the encoder to the compile-time contract in pdu/wire_contract.h:
  // every fixed-size header must serialize to exactly the advertised byte
  // count (plus the common preamble and u32 prefixes for strings).
  const auto fixed = [](PduHeader h) {
    Pdu p;
    p.header = std::move(h);
    return encode(p).size() - kWireCommonHeaderBytes;
  };
  EXPECT_EQ(fixed(ICReq{}), kWireICReqBytes);
  // ICResp carries two length-prefixed strings: shm_name and reject_reason.
  EXPECT_EQ(fixed(ICResp{}), kWireICRespBytes + 2 * kWireStrPrefixBytes);
  EXPECT_EQ(fixed(CapsuleCmd{}), kWireCapsuleCmdBytes);
  EXPECT_EQ(fixed(CapsuleResp{}), kWireCapsuleRespBytes);
  EXPECT_EQ(fixed(R2T{}), kWireR2TBytes);
  EXPECT_EQ(fixed(H2CData{}), kWireH2CDataBytes);
  EXPECT_EQ(fixed(C2HData{}), kWireC2HDataBytes);
  EXPECT_EQ(fixed(TermReq{}), kWireTermReqFixedBytes + kWireStrPrefixBytes);
  EXPECT_EQ(fixed(KeepAlive{}), kWireKeepAliveBytes);
  EXPECT_EQ(fixed(AnaLog{}), kWireAnaLogFixedBytes + kWireStrPrefixBytes);
}

std::string to_hex(std::span<const u8> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string s;
  for (const u8 b : bytes) {
    s += kDigits[b >> 4];
    s += kDigits[b & 0xf];
  }
  return s;
}

TEST(CodecTest, EveryPduTypeEncodesToPinnedBytes) {
  // Every field holds a value distinct from its default and, where its type
  // has room (a bool or a DataPlacement has not), from the other fields of
  // its width, so a reordered, dropped or resized field changes these bytes
  // even where encoder and decoder would agree with each other. A change
  // here is a protocol revision: both peers must move together.
  ICReq icreq;
  icreq.pfv = 0x0102;
  icreq.hpda = 0x03;
  icreq.header_digest = true;
  icreq.maxr2t = 0x04050607;
  icreq.node_token = 0x08090a0b0c0d0e0fULL;
  icreq.want_shm = true;
  icreq.data_digest = true;
  icreq.kato_ns = 0x1011121314151617ULL;
  icreq.trace_ctx = true;
  icreq.t_sent_ns = 0x18191a1b1c1d1e1fULL;

  ICResp icresp;
  icresp.pfv = 0x2122;
  icresp.header_digest = true;
  icresp.maxh2cdata = 0x23242526;
  icresp.shm_granted = true;
  icresp.shm_bytes = 0x2728292a2b2c2d2eULL;
  icresp.shm_slots = 0x2f303132;
  icresp.shm_name = "shm0";
  icresp.data_digest = true;
  icresp.trace_ctx = true;
  icresp.echo_t_ns = 0x3334353637383940ULL;
  icresp.t_now_ns = 0x4142434445464748ULL;
  icresp.admitted = false;
  icresp.retry_after_ms = 0x494a4b4c;
  icresp.reject_reason = "full";

  CapsuleCmd cmd;
  cmd.cmd.opcode = NvmeOpcode::kAbort;
  cmd.cmd.cid = 0x5152;
  cmd.cmd.nsid = 0x53545556;
  cmd.cmd.slba = 0x5758595a5b5c5d5eULL;
  cmd.cmd.nlb = 0x5f606162;
  cmd.cmd.abort_cid = 0x6364;
  cmd.cmd.abort_gen = 0x6566;
  cmd.placement = DataPlacement::kShmSlot;
  cmd.in_capsule_data = true;
  cmd.shm_slot = 0x67686970;
  cmd.data_len = 0x7172737475767778ULL;
  cmd.gen = 0x797a;
  cmd.trace_id = 0x7b7c7d7e7f808182ULL;
  cmd.parent_span = 0x8384858687888990ULL;

  CapsuleResp resp;
  resp.cpl.cid = 0x9192;
  resp.cpl.status = NvmeStatus::kLbaOutOfRange;
  resp.cpl.result = 0x939495969798999aULL;
  resp.io_time_ns = 0x9b9c9d9e9fa0a1a2ULL;
  resp.target_time_ns = 0xa3a4a5a6a7a8a9aaULL;
  resp.gen = 0xabac;

  R2T r2t;
  r2t.cid = 0xb1b2;
  r2t.ttag = 0xb3b4;
  r2t.offset = 0xb5b6b7b8b9babbbcULL;
  r2t.length = 0xbdbebfc0c1c2c3c4ULL;
  r2t.gen = 0xc5c6;

  H2CData h2c;
  h2c.cid = 0xd1d2;
  h2c.ttag = 0xd3d4;
  h2c.offset = 0xd5d6d7d8d9dadbdcULL;
  h2c.length = 3;
  h2c.last = false;
  h2c.placement = DataPlacement::kShmSlot;
  h2c.shm_slot = 0xdddedfe0;
  h2c.gen = 0xe1e2;
  h2c.data_digest = 0xe3e4e5e6;

  C2HData c2h;
  c2h.cid = 0xf1f2;
  c2h.offset = 0xf3f4f5f6f7f8f9faULL;
  c2h.length = 0xfbfcfdfeff000102ULL;
  c2h.last = false;
  c2h.success = true;
  c2h.placement = DataPlacement::kShmSlot;
  c2h.shm_slot = 0x03040506;
  c2h.io_time_ns = 0x0708090a0b0c0d0eULL;
  c2h.target_time_ns = 0x0f10111213141516ULL;
  c2h.gen = 0x1718;
  c2h.data_digest = 0x191a1b1c;

  TermReq h2c_term;
  h2c_term.from_host = true;
  h2c_term.fes = 0x2122;
  h2c_term.reason = "bad";
  TermReq c2h_term;
  c2h_term.from_host = false;
  c2h_term.fes = 0x2324;
  c2h_term.reason = "gone";

  KeepAlive ka;
  ka.from_host = false;
  ka.seq = 0x3132333435363738ULL;
  ka.t_sent_ns = 0x393a3b3c3d3e3f40ULL;
  ka.echo_t_ns = 0x4142434445464748ULL;

  ShmDemote demote;
  demote.reason = "ring";

  AnaLog ana;
  ana.state = AnaState::kInaccessible;
  ana.change_seq = 0x5152535455565758ULL;
  ana.reason = "drain";

  AnomalyReq areq;
  areq.trace_id = 0x6162636465666768ULL;
  areq.t_from_ns = -0x696a6b6c6d6e6f70LL;
  areq.t_to_ns = 0x7172737475767778LL;
  areq.offset_ns = -0x797a7b7c7d7e7f80LL;

  AnomalyResp aresp;
  aresp.trace_id = 0x8182838485868788ULL;
  aresp.pid = 0x898a8b8c8d8e8f90ULL;
  aresp.event_count = 0x91929394;

  struct Case {
    const char* name;
    PduHeader header;
    std::vector<u8> payload;
    bool header_digest;
    const char* hex;
  };
  const Case cases[] = {
      {"ICReq", icreq, {}, false,
       "00002b002b00000002010301070605040f0e0d0c0b0a09080101171615141312"
       "1110011f1e1d1c1b1a1918"},
      {"ICResp", icresp, {}, false,
       "010043004300000022210126252423012e2d2c2b2a2928273231302f04000000"
       "73686d30010140393837363534334847464544434241004c4b4a490400000066"
       "756c6c"},
      {"H2CTermReq", h2c_term, {}, false,
       "020012001200000001222103000000626164"},
      {"C2HTermReq", c2h_term, {}, false,
       "030013001300000000242304000000676f6e65"},
      {"CapsuleCmd", cmd, {0xc0, 0xde}, false,
       "04003f0041000000085251565554535e5d5c5b5a5958576261605f6463666501"
       "017069686778777675747372717a798281807f7e7d7c7b9089888786858483c0"
       "de"},
      {"CapsuleResp", resp, {}, false,
       "0500260026000000929180009a99989796959493a2a1a09f9e9d9c9baaa9a8a7"
       "a6a5a4a3acab"},
      {"H2CData", h2c, {0xaa, 0xbb, 0xcc}, false,
       "060028002b000000d2d1d4d3dcdbdad9d8d7d6d503000000000000000001e0df"
       "dedde2e1e6e5e4e3aabbcc"},
      {"C2HData", c2h, {}, false,
       "0700370037000000f2f1faf9f8f7f6f5f4f3020100fffefdfcfb000101060504"
       "030e0d0c0b0a090807161514131211100f18171c1b1a19"},
      {"R2T", r2t, {}, false,
       "09001e001e000000b2b1b4b3bcbbbab9b8b7b6b5c4c3c2c1c0bfbebdc6c5"},
      {"KeepAlive", ka, {}, false,
       "0a00210021000000003837363534333231403f3e3d3c3b3a3948474645444342"
       "41"},
      {"ShmDemote", demote, {}, false,
       "0b001000100000000400000072696e67"},
      {"AnaLog", ana, {}, false,
       "0c001a001a00000002585756555453525105000000647261696e"},
      {"AnomalyReq", areq, {}, false,
       "0d00280028000000686766656463626190909192939495967877767574737271"
       "8080818283848586"},
      {"AnomalyResp", aresp, {'[', ']'}, false,
       "0e001c001e0000008887868584838281908f8e8d8c8b8a89949392915b5d"},
      {"R2T+digest", r2t, {}, true,
       "09011e0022000000b2b1b4b3bcbbbab9b8b7b6b5c4c3c2c1c0bfbebdc6c5d3de"
       "7b7b"},
  };
  for (const Case& c : cases) {
    Pdu in;
    in.header = c.header;
    in.payload = c.payload;
    const CodecOptions opts{c.header_digest};
    const std::vector<u8> wire = encode(in, opts);
    EXPECT_EQ(to_hex(wire), c.hex) << c.name;
    // The decoder reads the pinned bytes back field for field: decoding and
    // re-encoding reproduces them.
    auto back = decode(wire, opts);
    ASSERT_TRUE(back.is_ok()) << c.name << ": " << back.status().to_string();
    EXPECT_EQ(back.value().type(), in.type()) << c.name;
    EXPECT_EQ(to_hex(encode(back.value(), opts)), c.hex) << c.name;
  }
}

TEST(CodecTest, TraceContextFieldsRoundtrip) {
  ICReq req;
  req.trace_ctx = true;
  req.t_sent_ns = 111'222'333;
  const Pdu rq_pdu = roundtrip(req);
  const auto* rq = rq_pdu.as<ICReq>();
  ASSERT_NE(rq, nullptr);
  EXPECT_TRUE(rq->trace_ctx);
  EXPECT_EQ(rq->t_sent_ns, 111'222'333u);

  ICResp resp;
  resp.trace_ctx = true;
  resp.echo_t_ns = 111'222'333;
  resp.t_now_ns = 999'888'777;
  const Pdu rp_pdu = roundtrip(resp);
  const auto* rp = rp_pdu.as<ICResp>();
  ASSERT_NE(rp, nullptr);
  EXPECT_TRUE(rp->trace_ctx);
  EXPECT_EQ(rp->echo_t_ns, 111'222'333u);
  EXPECT_EQ(rp->t_now_ns, 999'888'777u);

  CapsuleCmd c;
  c.cmd.cid = 7;
  c.trace_id = 0xA1B2C3D4E5F60718ULL;
  c.parent_span = 0x1122334455667788ULL;
  const Pdu ch_pdu = roundtrip(c);
  const auto* ch = ch_pdu.as<CapsuleCmd>();
  ASSERT_NE(ch, nullptr);
  EXPECT_EQ(ch->trace_id, 0xA1B2C3D4E5F60718ULL);
  EXPECT_EQ(ch->parent_span, 0x1122334455667788ULL);

  KeepAlive ka;
  ka.seq = 4;
  ka.t_sent_ns = 1'000;
  ka.echo_t_ns = 2'000;
  const Pdu kh_pdu = roundtrip(ka);
  const auto* kh = kh_pdu.as<KeepAlive>();
  ASSERT_NE(kh, nullptr);
  EXPECT_EQ(kh->t_sent_ns, 1'000u);
  EXPECT_EQ(kh->echo_t_ns, 2'000u);
}

// Re-frame an encoded PDU (no header digest) with the last `strip` bytes of
// the typed header removed — byte-identical to what the previous protocol
// revision's encoder emits for the same logical PDU.
std::vector<u8> strip_trailing_header_bytes(std::vector<u8> encoded,
                                            u64 strip) {
  const u16 hlen = static_cast<u16>(encoded[2] | (encoded[3] << 8));
  std::vector<u8> payload(encoded.begin() + hlen, encoded.end());
  encoded.resize(hlen - strip);
  const u16 new_hlen = static_cast<u16>(encoded.size());
  encoded[2] = static_cast<u8>(new_hlen);
  encoded[3] = static_cast<u8>(new_hlen >> 8);
  const u32 plen = static_cast<u32>(encoded.size() + payload.size());
  for (int i = 0; i < 4; ++i) {
    encoded[4 + static_cast<u64>(i)] = static_cast<u8>(plen >> (8 * i));
  }
  encoded.insert(encoded.end(), payload.begin(), payload.end());
  return encoded;
}

TEST(CodecTest, OldPeerICReqDecodesWithTraceContextOff) {
  // A rev-1 peer's ICReq (no trace-context tail) must decode cleanly with
  // the feature defaulted off — the negotiation story for mixed versions.
  ICReq req;
  req.pfv = 1;
  req.want_shm = true;
  req.kato_ns = 5'000'000'000ull;
  Pdu in;
  in.header = req;
  const auto old_frame = strip_trailing_header_bytes(
      encode(in), kWireICReqBytes - kWireICReqBytesV1);
  auto decoded = decode(old_frame, {});
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  const auto* h = decoded.value().as<ICReq>();
  ASSERT_NE(h, nullptr);
  EXPECT_TRUE(h->want_shm);
  EXPECT_EQ(h->kato_ns, 5'000'000'000ull);
  EXPECT_FALSE(h->trace_ctx);
  EXPECT_EQ(h->t_sent_ns, 0u);
}

TEST(CodecTest, OldPeerFramesDecodeWithDefaults) {
  {
    ICResp resp;
    resp.shm_granted = true;
    resp.shm_name = "r";
    Pdu in;
    in.header = resp;
    // A rev-1 peer's frame lacks the rev-2 fixed tail AND the rev-4 tail
    // (whose empty reject_reason still costs a u32 length prefix).
    auto decoded = decode(
        strip_trailing_header_bytes(encode(in),
                                    kWireICRespBytes - kWireICRespBytesV1 +
                                        kWireStrPrefixBytes),
        {});
    ASSERT_TRUE(decoded.is_ok());
    const auto* h = decoded.value().as<ICResp>();
    ASSERT_NE(h, nullptr);
    EXPECT_TRUE(h->shm_granted);
    EXPECT_FALSE(h->trace_ctx);
    EXPECT_TRUE(h->admitted);  // rejection is never implied by a short frame
  }
  {
    // A rev-2/3 peer sends the clock-echo tail but no admission verdict;
    // the verdict must default to admitted with the trace fields intact.
    ICResp resp;
    resp.trace_ctx = true;
    resp.t_now_ns = 42;
    Pdu in;
    in.header = resp;
    auto decoded = decode(
        strip_trailing_header_bytes(encode(in),
                                    kWireICRespBytes - kWireICRespBytesV2 +
                                        kWireStrPrefixBytes),
        {});
    ASSERT_TRUE(decoded.is_ok());
    const auto* h = decoded.value().as<ICResp>();
    ASSERT_NE(h, nullptr);
    EXPECT_TRUE(h->trace_ctx);
    EXPECT_EQ(h->t_now_ns, 42u);
    EXPECT_TRUE(h->admitted);
    EXPECT_EQ(h->retry_after_ms, 0u);
  }
  {
    CapsuleCmd c;
    c.cmd.cid = 9;
    c.gen = 3;
    Pdu in;
    in.header = c;
    auto decoded = decode(
        strip_trailing_header_bytes(
            encode(in), kWireCapsuleCmdBytes - kWireCapsuleCmdBytesV1),
        {});
    ASSERT_TRUE(decoded.is_ok());
    const auto* h = decoded.value().as<CapsuleCmd>();
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->cmd.cid, 9);
    EXPECT_EQ(h->gen, 3);
    EXPECT_EQ(h->trace_id, 0u);
    EXPECT_EQ(h->parent_span, 0u);
  }
  {
    KeepAlive ka;
    ka.seq = 11;
    Pdu in;
    in.header = ka;
    auto decoded = decode(
        strip_trailing_header_bytes(
            encode(in), kWireKeepAliveBytes - kWireKeepAliveBytesV1),
        {});
    ASSERT_TRUE(decoded.is_ok());
    const auto* h = decoded.value().as<KeepAlive>();
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->seq, 11u);
    EXPECT_EQ(h->t_sent_ns, 0u);
  }
}

TEST(CodecTest, FutureTrailingHeaderBytesTolerated) {
  // The converse interop property: the decoder must ignore typed-header
  // bytes beyond what it understands, so a rev-3 peer's frames still parse.
  CapsuleCmd c;
  c.cmd.cid = 4;
  c.trace_id = 77;
  Pdu in;
  in.header = c;
  auto frame = encode(in);
  const u16 hlen = static_cast<u16>(frame[2] | (frame[3] << 8));
  frame.insert(frame.begin() + hlen, {0xAA, 0xBB, 0xCC});  // future fields
  const u16 new_hlen = static_cast<u16>(hlen + 3);
  frame[2] = static_cast<u8>(new_hlen);
  frame[3] = static_cast<u8>(new_hlen >> 8);
  const u32 plen = static_cast<u32>(frame.size());
  for (int i = 0; i < 4; ++i) {
    frame[4 + static_cast<u64>(i)] = static_cast<u8>(plen >> (8 * i));
  }
  auto decoded = decode(frame, {});
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  const auto* h = decoded.value().as<CapsuleCmd>();
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->cmd.cid, 4);
  EXPECT_EQ(h->trace_id, 77u);
}

TEST(CodecTest, AnomalyReqRoundtrip) {
  AnomalyReq req;
  req.trace_id = 0xFEEDFACE01234567ULL;
  req.t_from_ns = -5'000'000;  // windows can start before the peer's epoch
  req.t_to_ns = 9'876'543'210;
  req.offset_ns = -123'456'789;
  const Pdu out = roundtrip(req);
  const auto* h = out.as<AnomalyReq>();
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->trace_id, 0xFEEDFACE01234567ULL);
  EXPECT_EQ(h->t_from_ns, -5'000'000);
  EXPECT_EQ(h->t_to_ns, 9'876'543'210);
  EXPECT_EQ(h->offset_ns, -123'456'789);
  EXPECT_EQ(out.type(), PduType::kAnomalyReq);
}

TEST(CodecTest, AnomalyRespRoundtripWithEventPayload) {
  AnomalyResp resp;
  resp.trace_id = 42;
  resp.pid = 31337;
  resp.event_count = 3;
  const std::string events = R"([{"ts_ns":1},{"ts_ns":2},{"ts_ns":3}])";
  std::vector<u8> payload(events.begin(), events.end());
  const Pdu out = roundtrip(resp, payload);
  const auto* h = out.as<AnomalyResp>();
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->trace_id, 42u);
  EXPECT_EQ(h->pid, 31337u);
  EXPECT_EQ(h->event_count, 3u);
  EXPECT_EQ(std::string(out.payload.begin(), out.payload.end()), events);
  EXPECT_EQ(out.type(), PduType::kAnomalyResp);
}

TEST(CodecTest, ShmReferencePduIsSmall) {
  // The whole point of the oAF notification: a 128 KiB payload reference
  // costs well under 100 wire bytes.
  Pdu in;
  C2HData c;
  c.length = 128 * 1024;
  c.placement = DataPlacement::kShmSlot;
  c.shm_slot = 5;
  in.header = c;
  EXPECT_LT(wire_size(in), 100u);
}

TEST(CodecTest, HeaderThenPayloadIsTheWholeEncoding) {
  Pdu in;
  H2CData h;
  h.cid = 11;
  h.length = 300;
  in.header = h;
  in.payload.assign(300, 0xab);
  for (const bool digest : {false, true}) {
    const CodecOptions opts{digest};
    std::vector<u8> head = {1, 2, 3};  // stale contents are replaced
    encode_header(in, opts, head);
    head.insert(head.end(), in.payload.begin(), in.payload.end());
    EXPECT_EQ(head, encode(in, opts)) << "digest=" << digest;
  }
}

TEST(CodecTest, DecodeHeadReadsTheHeaderAndSizesThePayload) {
  Pdu in;
  CapsuleCmd c;
  c.cmd.cid = 77;
  c.data_len = 5000;
  in.header = c;
  in.payload.assign(5000, 0x5a);
  for (const bool digest : {false, true}) {
    const CodecOptions opts{digest};
    const std::vector<u8> wire = encode(in, opts);
    const std::span<const u8> all(wire);
    const u64 head_len = wire.size() - in.payload.size();
    // A header still arriving is "not yet", not malformed.
    auto early = decode_head(all.first(head_len - 1), wire.size(), opts);
    ASSERT_FALSE(early.is_ok());
    EXPECT_EQ(early.status().code(), StatusCode::kOutOfRange);
    // Header plus part of the payload: the header decodes, the payload comes
    // back sized for the rest of the frame.
    auto head = decode_head(all.first(head_len + 10), wire.size(), opts);
    ASSERT_TRUE(head.is_ok()) << head.status().to_string();
    EXPECT_EQ(head.value().as<CapsuleCmd>()->cmd.cid, 77);
    EXPECT_EQ(head.value().payload.size(), 5000u);
    // It validates as decode() does.
    EXPECT_FALSE(decode_head(all, wire.size() + 1, opts).is_ok());
    EXPECT_FALSE(decode_head(all, wire.size(), CodecOptions{!digest}).is_ok());
  }
}

}  // namespace
}  // namespace oaf::pdu
