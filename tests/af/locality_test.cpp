#include "af/locality.h"

#include <gtest/gtest.h>

namespace oaf::af {
namespace {

TEST(ShmBrokerTest, ProvisionAnnouncesOnLocalityPage) {
  ShmBroker broker(0x1111);
  auto h = broker.provision("connA", 1 << 20);
  ASSERT_TRUE(h.is_ok()) << h.status().to_string();
  const auto handle = std::move(h).take();
  EXPECT_TRUE(handle.valid());
  EXPECT_EQ(handle.bytes, RegionHandle::kRingOffset + (1u << 20));
  const auto page = handle.locality_page();
  EXPECT_EQ(page.generation(), 1u);
  EXPECT_EQ(page.node_token(), 0x1111u);
  EXPECT_EQ(page.region_name(), "connA");
}

TEST(ShmBrokerTest, OpenSharesMemoryInProcessMode) {
  ShmBroker broker(1);
  auto provisioned = broker.provision("c", 4096).take();
  auto opened = broker.open("c");
  ASSERT_TRUE(opened.is_ok());
  // Process-shared backing: literally the same pages.
  provisioned.ring_area()[0] = 0x7E;
  EXPECT_EQ(opened.value().ring_area()[0], 0x7E);
}

TEST(ShmBrokerTest, SingleOpenIsolation) {
  // Paper §6: one shm channel per (client, target) pair; a second tenant
  // must not be able to map the region.
  ShmBroker broker(1);
  (void)broker.provision("conn", 4096);
  ASSERT_TRUE(broker.open("conn").is_ok());
  auto second = broker.open("conn");
  EXPECT_FALSE(second.is_ok());
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ShmBrokerTest, DuplicateProvisionRejected) {
  ShmBroker broker(1);
  ASSERT_TRUE(broker.provision("x", 4096).is_ok());
  auto dup = broker.provision("x", 4096);
  EXPECT_FALSE(dup.is_ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
}

TEST(ShmBrokerTest, OpenUnknownRegionFails) {
  ShmBroker broker(1);
  EXPECT_FALSE(broker.open("ghost").is_ok());
}

TEST(ShmBrokerTest, RevokeFreesName) {
  ShmBroker broker(1);
  auto handle = broker.provision("temp", 4096).take();
  EXPECT_EQ(broker.active_regions(), 1u);
  ASSERT_TRUE(broker.revoke("temp"));
  EXPECT_EQ(broker.active_regions(), 0u);
  // Name reusable after revoke.
  EXPECT_TRUE(broker.provision("temp", 4096).is_ok());
  // Old handle's memory stays valid through its keepalive.
  handle.ring_area()[0] = 1;
}

TEST(ShmBrokerTest, PosixBackingDistinctMappingsSamePages) {
  ShmBroker broker(2, ShmBroker::Backing::kPosixShm);
  const std::string name = "test_posix_" + std::to_string(getpid());
  auto provisioned_res = broker.provision(name, 1 << 16);
  ASSERT_TRUE(provisioned_res.is_ok()) << provisioned_res.status().to_string();
  auto provisioned = std::move(provisioned_res).take();
  auto opened = broker.open(name);
  ASSERT_TRUE(opened.is_ok()) << opened.status().to_string();
  EXPECT_NE(provisioned.base, opened.value().base);  // distinct mappings
  provisioned.ring_area()[5] = 0x42;
  EXPECT_EQ(opened.value().ring_area()[5], 0x42);    // same pages
  ASSERT_TRUE(broker.revoke(name));
}

TEST(ShmBrokerTest, EmptyNameRejected) {
  ShmBroker broker(1);
  EXPECT_FALSE(broker.provision("", 4096).is_ok());
}

}  // namespace
}  // namespace oaf::af
