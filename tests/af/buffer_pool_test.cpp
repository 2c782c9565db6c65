// The target's staging pool (af/buffer_manager.h): admission bounds, the
// parent chain, and the buffer lifecycle that releases each charge once.
#include "af/buffer_manager.h"

#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

namespace oaf::af {
namespace {

TEST(StagingPoolTest, ChargesUpToCapacity) {
  StagingPool pool("pool", 100);
  auto a = pool.acquire(60);
  auto b = pool.acquire(40);
  ASSERT_TRUE(a);
  ASSERT_TRUE(b);
  EXPECT_EQ(a.value().size(), 60u);
  EXPECT_EQ(b.value().size(), 40u);
  EXPECT_EQ(pool.in_use(), 100u);
  EXPECT_EQ(pool.peak(), 100u);
  a.value().reset();
  EXPECT_EQ(pool.in_use(), 40u);
  auto c = pool.acquire(30);
  ASSERT_TRUE(c);
  EXPECT_EQ(pool.in_use(), 70u);
  EXPECT_EQ(pool.peak(), 100u);  // peak is sticky
  EXPECT_EQ(pool.denied(), 0u);
}

TEST(StagingPoolTest, RefusalIsTypedNamedAndCounted) {
  StagingPool pool("conn budget", 4096);
  auto held = pool.acquire(4096);
  ASSERT_TRUE(held);
  auto refused = pool.acquire(1);
  ASSERT_FALSE(refused);
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(refused.status().message(), "conn budget");
  EXPECT_EQ(pool.denied(), 1u);
  EXPECT_EQ(pool.in_use(), 4096u);  // a refusal charges nothing
}

TEST(StagingPoolTest, CapacityZeroIsUnlimited) {
  StagingPool pool("pool", 0);
  auto a = pool.acquire(1u << 20);
  auto b = pool.acquire(1u << 20);
  ASSERT_TRUE(a);
  ASSERT_TRUE(b);
  EXPECT_EQ(pool.in_use(), 2u << 20);
  EXPECT_EQ(pool.denied(), 0u);
  EXPECT_FALSE(pool.above(0.0));  // no capacity, no watermark
}

TEST(StagingPoolTest, WatermarkIsAFractionOfCapacity) {
  StagingPool pool("pool", 10);
  auto held = pool.acquire(9);
  ASSERT_TRUE(held);
  EXPECT_TRUE(pool.above(0.9));
  EXPECT_FALSE(pool.above(0.95));
  held.value().reset();
  EXPECT_FALSE(pool.above(0.1));
}

TEST(StagingPoolTest, ChargesTheParentAndARefusalChargesNothing) {
  StagingPool global("global", 8192);
  StagingPool a("conn a", 8192, &global);
  StagingPool b("conn b", 2048, &global);
  auto held = a.acquire(6144);
  ASSERT_TRUE(held);
  EXPECT_EQ(global.in_use(), 6144u);

  // b's own budget refuses first: only b counts it, nobody is charged.
  auto own = b.acquire(4096);
  ASSERT_FALSE(own);
  EXPECT_EQ(own.status().message(), "conn b");
  EXPECT_EQ(b.denied(), 1u);
  EXPECT_EQ(global.denied(), 0u);

  // Fill the parent through b. Then a has room of its own but the parent
  // does not: the parent refuses and counts it, and a is left uncharged.
  auto fill = b.acquire(2048);
  EXPECT_TRUE(fill);
  auto over = a.acquire(2048);
  ASSERT_FALSE(over);
  EXPECT_EQ(over.status().message(), "global");
  EXPECT_EQ(global.denied(), 1u);
  EXPECT_EQ(a.denied(), 0u);
  EXPECT_EQ(a.in_use(), 6144u);
  EXPECT_EQ(global.in_use(), 8192u);
  EXPECT_EQ(global.peak(), 8192u);
}

TEST(StagingPoolTest, MoveOnlyBufferReleasesExactlyOnce) {
  StagingPool global("global", 0);
  StagingPool conn("conn", 0, &global);
  {
    StagingBuffer outer;
    {
      StagingBuffer inner = conn.acquire(4096).take();
      EXPECT_EQ(conn.in_use(), 4096u);
      outer = std::move(inner);
      EXPECT_EQ(inner.size(), 0u);  // NOLINT(bugprone-use-after-move)
    }  // the moved-from buffer holds nothing to give back
    EXPECT_EQ(conn.in_use(), 4096u);
    EXPECT_EQ(global.in_use(), 4096u);
    StagingBuffer moved(std::move(outer));
    moved.reset();
    EXPECT_EQ(conn.in_use(), 0u);
    moved.reset();  // a second reset gives nothing back
    EXPECT_EQ(global.in_use(), 0u);
    outer = conn.acquire(512).take();
  }  // destruction releases like reset()
  EXPECT_EQ(conn.in_use(), 0u);
  EXPECT_EQ(global.in_use(), 0u);
  EXPECT_EQ(global.peak(), 4096u);
}

TEST(StagingPoolTest, RecycledBytesComeBackZeroed) {
  StagingPool global("global", 0);
  StagingPool conn("conn", 0, &global);
  const u8* first = nullptr;
  {
    StagingBuffer b = conn.acquire(32 * 1024).take();
    first = b.data();
    std::memset(b.data(), 0xAB, b.size());
  }
  // Same size class: the root hands the same storage back, wiped.
  StagingBuffer again = conn.acquire(20 * 1024).take();
  EXPECT_EQ(again.data(), first);
  const std::vector<u8> zeros(again.size(), 0);
  EXPECT_EQ(std::memcmp(again.data(), zeros.data(), zeros.size()), 0);
}

}  // namespace
}  // namespace oaf::af
