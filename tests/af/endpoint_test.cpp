#include "af/endpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>

#include "sim/scheduler.h"

namespace oaf::af {
namespace {

/// Map one freshly provisioned region into both endpoints, as the
/// Connection Manager does after the handshake.
void wire(ShmBroker& broker, AfEndpoint& client, AfEndpoint& target,
          u64 slot_bytes = 4096, u32 slots = 8) {
  const u64 ring_bytes = shm::DoubleBufferRing::required_bytes(slot_bytes, slots);
  auto handle = broker.provision("pair", ring_bytes).take();
  auto ring = shm::DoubleBufferRing::create(handle.ring_area(),
                                            handle.ring_bytes(), slot_bytes,
                                            slots)
                  .take();
  auto client_handle = broker.open("pair").take();
  auto client_ring = shm::DoubleBufferRing::attach(client_handle.ring_area(),
                                                   client_handle.ring_bytes())
                         .take();
  client.enable_shm(std::move(client_handle), client_ring);
  target.enable_shm(std::move(handle), ring);
}

class EndpointPair {
 public:
  explicit EndpointPair(AfConfig cfg = AfConfig::oaf(), u64 slot_bytes = 4096,
                        u32 slots = 8)
      : broker_(1),
        client_(Role::kClient, sched_, copier_, cfg),
        target_(Role::kTarget, sched_, copier_, cfg) {
    wire(broker_, client_, target_, slot_bytes, slots);
  }

  sim::Scheduler sched_;
  net::InlineCopier copier_;
  ShmBroker broker_;
  AfEndpoint client_;
  AfEndpoint target_;
};

/// An endpoint pair whose copiers are Fig 8's SHM-baseline: both sides'
/// copies take one lock. The client can be destroyed mid-run, as the
/// association reaper does.
struct LockedPair {
  LockedPair() { wire(broker, *client, target); }

  sim::Scheduler sched;
  std::shared_ptr<sim::AsyncMutex> lock =
      std::make_shared<sim::AsyncMutex>(sched);
  net::LockedCopier client_copier{std::make_unique<net::InlineCopier>(), lock,
                                  sched};
  net::LockedCopier target_copier{std::make_unique<net::InlineCopier>(), lock,
                                  sched};
  ShmBroker broker{1};
  std::unique_ptr<AfEndpoint> client = std::make_unique<AfEndpoint>(
      Role::kClient, sched, client_copier, AfConfig::oaf());
  AfEndpoint target{Role::kTarget, sched, target_copier, AfConfig::oaf()};
};

TEST(AfEndpointTest, NotReadyWithoutShm) {
  sim::Scheduler sched;
  net::InlineCopier copier;
  AfEndpoint ep(Role::kClient, sched, copier, AfConfig::oaf());
  EXPECT_FALSE(ep.shm_ready());
  EXPECT_FALSE(ep.stage_payload(0, std::vector<u8>(16), [] {}));
  EXPECT_FALSE(ep.acquire_app_buffer(0).is_ok());
  EXPECT_FALSE(ep.consume_view(0).is_ok());
  EXPECT_FALSE(ep.release_slot(0));
}

TEST(AfEndpointTest, StageConsumeClientToTarget) {
  EndpointPair pair;
  std::vector<u8> data(1000);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<u8>(i);

  bool staged = false;
  ASSERT_TRUE(pair.client_.stage_payload(3, data, [&] { staged = true; }));
  pair.sched_.run();
  ASSERT_TRUE(staged);

  std::vector<u8> out(1000);
  Result<u64> got = make_error(StatusCode::kUnavailable);
  pair.target_.consume_payload(3, out, [&](Result<u64> r) { got = r; });
  pair.sched_.run();
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value(), 1000u);
  EXPECT_EQ(out, data);
  EXPECT_EQ(pair.client_.shm_payload_bytes(), 1000u);
  EXPECT_EQ(pair.client_.staged_copies(), 1u);
}

TEST(AfEndpointTest, StageConsumeTargetToClient) {
  EndpointPair pair;
  std::vector<u8> data(512, 0xBD);
  ASSERT_TRUE(pair.target_.stage_payload(0, data, [] {}));
  pair.sched_.run();
  auto view = pair.client_.consume_view(0);
  ASSERT_TRUE(view.is_ok());
  EXPECT_EQ(view.value().size(), 512u);
  EXPECT_EQ(view.value()[0], 0xBD);
  ASSERT_TRUE(pair.client_.release_slot(0));
}

TEST(AfEndpointTest, ZeroCopyWritePath) {
  EndpointPair pair;
  auto buf = pair.client_.acquire_app_buffer(2);
  ASSERT_TRUE(buf.is_ok());
  std::memset(buf.value().data(), 0x99, 256);

  bool published = false;
  ASSERT_TRUE(pair.client_.publish_app_buffer(2, 256, [&] { published = true; }));
  pair.sched_.run();
  ASSERT_TRUE(published);
  EXPECT_EQ(pair.client_.zero_copy_publishes(), 1u);
  EXPECT_EQ(pair.client_.staged_copies(), 0u);

  std::vector<u8> out(256);
  Result<u64> got = make_error(StatusCode::kUnavailable);
  pair.target_.consume_payload(2, out, [&](Result<u64> r) { got = r; });
  pair.sched_.run();
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(out[0], 0x99);
}

TEST(AfEndpointTest, PayloadTooLargeRejected) {
  EndpointPair pair(AfConfig::oaf(), 512, 4);
  std::vector<u8> big(513);
  EXPECT_FALSE(pair.client_.stage_payload(0, big, [] {}));
}

TEST(AfEndpointTest, SlotBusyRejected) {
  EndpointPair pair;
  ASSERT_TRUE(pair.client_.stage_payload(1, std::vector<u8>(8), [] {}));
  pair.sched_.run();
  // Slot 1 still Ready (unconsumed) -> second stage fails.
  EXPECT_FALSE(pair.client_.stage_payload(1, std::vector<u8>(8), [] {}));
}

TEST(AfEndpointTest, ConsumeEmptySlotFails) {
  EndpointPair pair;
  std::vector<u8> out(64);
  Result<u64> got = Result<u64>(u64{0});
  pair.target_.consume_payload(5, out, [&](Result<u64> r) { got = r; });
  pair.sched_.run();
  EXPECT_FALSE(got.is_ok());
}

TEST(AfEndpointTest, DstTooSmallFails) {
  EndpointPair pair;
  ASSERT_TRUE(pair.client_.stage_payload(0, std::vector<u8>(100), [] {}));
  pair.sched_.run();
  std::vector<u8> tiny(50);
  Result<u64> got = Result<u64>(u64{0});
  pair.target_.consume_payload(0, tiny, [&](Result<u64> r) { got = r; });
  pair.sched_.run();
  EXPECT_FALSE(got.is_ok());
  // The failed consume released the slot: the producer can stage again.
  EXPECT_TRUE(pair.client_.stage_payload(0, std::vector<u8>(100), [] {}));
}

TEST(AfEndpointTest, LockedStageReadsItsSourceAtOnce) {
  LockedPair pair;
  std::vector<u8> src(100, 0xAB);
  bool staged = false;
  ASSERT_TRUE(pair.client->stage_payload(0, src, [&] { staged = true; }));
  // The caller recycles its buffer while the copy waits for the lock.
  std::fill(src.begin(), src.end(), 0);
  pair.sched.run();
  ASSERT_TRUE(staged);

  std::vector<u8> out(100);
  Result<u64> got = make_error(StatusCode::kUnavailable);
  pair.target.consume_payload(0, out, [&](Result<u64> r) { got = r; });
  pair.sched.run();
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(out, std::vector<u8>(100, 0xAB));
}

TEST(AfEndpointTest, ReapedEndpointDoesNotWedgeItsPeer) {
  LockedPair pair;
  const std::vector<u8> a(64, 1);
  const std::vector<u8> b(64, 2);
  ASSERT_TRUE(pair.client->stage_payload(0, a, [] {}));
  pair.client.reset();  // reaped before its copy is granted the lock
  bool staged = false;
  ASSERT_TRUE(pair.target.stage_payload(1, b, [&] { staged = true; }));
  pair.sched.run();
  EXPECT_TRUE(staged);
  EXPECT_FALSE(pair.lock->held());
  EXPECT_EQ(pair.lock->waiters(), 0u);
}

TEST(AfEndpointTest, FullRingLap) {
  EndpointPair pair(AfConfig::oaf(), 256, 4);
  for (u64 seq = 0; seq < 12; ++seq) {
    const u32 slot = pair.client_.slot_for(seq);
    EXPECT_EQ(slot, seq % 4);
    std::vector<u8> data(32, static_cast<u8>(seq));
    ASSERT_TRUE(pair.client_.stage_payload(slot, data, [] {}));
    pair.sched_.run();
    std::vector<u8> out(32);
    Result<u64> got = make_error(StatusCode::kUnavailable);
    pair.target_.consume_payload(slot, out, [&](Result<u64> r) { got = r; });
    pair.sched_.run();
    ASSERT_TRUE(got.is_ok());
    EXPECT_EQ(out[0], static_cast<u8>(seq));
  }
}

}  // namespace
}  // namespace oaf::af
