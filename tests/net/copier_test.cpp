#include "net/copier.h"

#include <gtest/gtest.h>

#include <memory>

#include "sim/scheduler.h"

namespace oaf::net {
namespace {

TEST(InlineCopierTest, CopiesImmediately) {
  InlineCopier c;
  std::vector<u8> src(100, 0x42);
  std::vector<u8> dst(100, 0);
  bool done = false;
  c.copy(src, dst, [&] { done = true; });
  EXPECT_TRUE(done);
  EXPECT_EQ(dst, src);
}

TEST(InlineCopierTest, ChargeIsFree) {
  InlineCopier c;
  bool done = false;
  c.charge(1 << 30, [&] { done = true; });
  EXPECT_TRUE(done);
}

TEST(SimCopierTest, CopyMovesDataAndChargesTime) {
  sim::Scheduler sched;
  ShmFabricParams params;
  params.memcpy_bytes_per_sec = 1e9;       // 1 GB/s stream
  params.node_mem_bytes_per_sec = 1e10;
  SimMemoryBus bus(sched, params);
  SimCopier c(bus);

  std::vector<u8> src(1'000'000, 0x5A);
  std::vector<u8> dst(1'000'000, 0);
  TimeNs done_at = -1;
  c.copy(src, dst, [&] { done_at = sched.now(); });
  // Data moves immediately (functional correctness)...
  EXPECT_EQ(dst, src);
  EXPECT_EQ(done_at, -1);
  sched.run();
  // ...but completion costs ~1 ms of virtual time (stream-rate bound).
  EXPECT_GE(done_at, 1'000'000);
  EXPECT_LT(done_at, 1'200'000);
}

TEST(SimCopierTest, NodeBusLimitsAggregate) {
  sim::Scheduler sched;
  ShmFabricParams params;
  params.memcpy_bytes_per_sec = 1e10;   // streams are fast
  params.node_mem_bytes_per_sec = 1e9;  // the node bus is the bottleneck
  SimMemoryBus bus(sched, params);
  SimCopier c1(bus);
  SimCopier c2(bus);

  std::vector<u8> buf(1'000'000);
  std::vector<u8> out1(1'000'000);
  std::vector<u8> out2(1'000'000);
  TimeNs t1 = -1;
  TimeNs t2 = -1;
  c1.copy(buf, out1, [&] { t1 = sched.now(); });
  c2.copy(buf, out2, [&] { t2 = sched.now(); });
  sched.run();
  // 2 MB through a 1 GB/s bus: last finishes at ~2 ms.
  EXPECT_GE(std::max(t1, t2), 2'000'000);
  EXPECT_EQ(bus.bytes_copied(), 2'000'000u);
}

TEST(SimCopierTest, ChargeWithoutData) {
  sim::Scheduler sched;
  ShmFabricParams params;
  params.memcpy_bytes_per_sec = 1e9;
  params.node_mem_bytes_per_sec = 1e9;
  SimMemoryBus bus(sched, params);
  SimCopier c(bus);
  TimeNs done_at = -1;
  c.charge(500'000, [&] { done_at = sched.now(); });
  sched.run();
  EXPECT_GE(done_at, 500'000);  // at least the stream time
}

TEST(LockedCopierTest, SharedLockSerializesButDelivers) {
  sim::Scheduler sched;
  auto lock = std::make_shared<sim::AsyncMutex>(sched);
  LockedCopier client(std::make_unique<InlineCopier>(), lock, sched);
  LockedCopier target(std::make_unique<InlineCopier>(), lock, sched);

  std::vector<u8> a(100, 1);
  std::vector<u8> b(100, 2);
  std::vector<u8> out_a(100);
  std::vector<u8> out_b(100);
  TimeNs t_a = -1;
  TimeNs t_b = -1;
  client.copy(a, out_a, [&] { t_a = sched.now(); });
  target.copy(b, out_b, [&] { t_b = sched.now(); });
  // The bytes move at once; only the completions wait for the lock.
  EXPECT_EQ(out_a, a);
  EXPECT_EQ(out_b, b);
  EXPECT_EQ(t_a, -1);
  sched.run();
  EXPECT_EQ(t_a, LockedCopier::kHoldNs);
  EXPECT_EQ(t_b, t_a + LockedCopier::kHoldNs);
  EXPECT_EQ(lock->contentions(), 1u);
  EXPECT_FALSE(lock->held());
}

TEST(LockedCopierTest, ChargeBypassesTheLock) {
  sim::Scheduler sched;
  auto lock = std::make_shared<sim::AsyncMutex>(sched);
  LockedCopier c(std::make_unique<InlineCopier>(), lock, sched);
  bool done = false;
  c.charge(1 << 20, [&] { done = true; });
  EXPECT_TRUE(done);
  EXPECT_FALSE(lock->held());
}

}  // namespace
}  // namespace oaf::net
