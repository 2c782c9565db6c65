#include "sim/real_executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace oaf::sim {
namespace {

TEST(RealExecutorTest, PostRunsOnExecutorThread) {
  RealExecutor ex;
  std::atomic<bool> ran{false};
  std::atomic<std::thread::id> tid{};
  ex.post([&] {
    tid = std::this_thread::get_id();
    ran = true;
  });
  ex.drain();
  EXPECT_TRUE(ran.load());
  EXPECT_NE(tid.load(), std::this_thread::get_id());
}

TEST(RealExecutorTest, PostsRunInOrder) {
  RealExecutor ex;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    ex.post([&order, i] { order.push_back(i); });
  }
  ex.drain();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(RealExecutorTest, TimerFiresAfterDelay) {
  RealExecutor ex;
  std::atomic<bool> fired{false};
  const TimeNs start = ex.now();
  std::atomic<TimeNs> fire_time{0};
  ex.schedule_after(2'000'000, [&] {  // 2 ms
    fire_time = ex.now();
    fired = true;
  });
  // drain() waits for due timers; poll until fired.
  while (!fired.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(fire_time.load() - start, 2'000'000);
}

TEST(RealExecutorTest, NowAdvances) {
  RealExecutor ex;
  const TimeNs a = ex.now();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_GT(ex.now(), a);
}

TEST(RealExecutorTest, CrossThreadPostsSafe) {
  RealExecutor ex;
  std::atomic<int> count{0};
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&ex, &count] {
      for (int i = 0; i < 250; ++i) {
        ex.post([&count] { count.fetch_add(1, std::memory_order_relaxed); });
      }
    });
  }
  for (auto& t : threads) t.join();
  ex.drain();
  EXPECT_EQ(count.load(), 1000);
}

// The reactor sleeps with a nanosecond timeout taken from its earliest
// timer: a 100 us timer on an idle reactor must not round up to the
// millisecond granularity of epoll_wait.
TEST(RealExecutorTest, ShortTimerFiresUnrounded) {
  RealExecutor ex;
  std::vector<DurNs> late;
  for (int i = 0; i < 50; ++i) {
    std::atomic<TimeNs> fired{0};
    const TimeNs armed = ex.now();
    ex.schedule_after(100'000, [&] { fired = ex.now(); });
    while (fired.load() == 0) std::this_thread::yield();
    late.push_back(fired.load() - armed);
  }
  std::sort(late.begin(), late.end());
  EXPECT_GE(late.front(), 100'000);
  EXPECT_LT(late[late.size() / 2], 900'000);
}

// A post() from another thread wakes a reactor blocked with nothing to do.
TEST(RealExecutorTest, ForeignPostWakesIdleReactor) {
  RealExecutor ex;
  ex.drain();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // surely asleep
  std::atomic<bool> ran{false};
  const auto t0 = std::chrono::steady_clock::now();
  ex.post([&] { ran = true; });
  while (!ran.load()) {
    ASSERT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
    std::this_thread::yield();
  }
}

// Posts and timers from the reactor thread itself land in its own queues
// and still run in order.
TEST(RealExecutorTest, SelfPostsAndTimersFromReactorThread) {
  RealExecutor ex;
  std::vector<int> order;
  std::atomic<bool> done{false};
  ex.post([&] {
    ex.schedule_after(1'000'000, [&] {
      order.push_back(3);
      done = true;
    });
    ex.post([&] { order.push_back(1); });
    ex.post([&] { order.push_back(2); });
  });
  while (!done.load()) std::this_thread::yield();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

}  // namespace
}  // namespace oaf::sim
