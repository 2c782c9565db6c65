// Profiling plane (DESIGN.md §15): unwinder edge cases on hand-built frame
// chains, sample-ring FIFO/overflow behavior, exclusive-time CostScope
// accounting, allocation-ledger attribution, reactor health, the prof_json
// aggregation — and the signal-safety contract: a thread being sampled at
// full rate while it hammers malloc must neither deadlock nor crash.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/json_parse.h"
#include "sim/real_executor.h"
#include "telemetry/prof/prof.h"
#include "telemetry/prof/sample_ring.h"
#include "telemetry/prof/unwind.h"

namespace oaf::telemetry::prof {
namespace {

// --------------------------------------------------------------------------
// Unwinder: hand-built frame chains in a local buffer.
// --------------------------------------------------------------------------

/// Builds [ next_fp ][ ret ] frame records inside `stack` and returns the
/// fp of the innermost frame. Frames are laid out low-to-high, matching a
/// downward-growing call stack unwound toward the base.
struct FakeStack {
  // 64 u64 slots, 8-aligned by type.
  u64 slots[64] = {};
  u64 lo() const { return reinterpret_cast<u64>(&slots[0]); }
  u64 hi() const { return reinterpret_cast<u64>(&slots[64]); }
  u64 at(std::size_t i) const { return reinterpret_cast<u64>(&slots[i]); }
};

TEST(Unwind, WalksChainLeafToRoot) {
  FakeStack st;
  // Innermost frame at slot 0 -> frame at slot 8 -> frame at slot 16 (root).
  st.slots[0] = st.at(8);   // caller's fp
  st.slots[1] = 0x1001;     // return address into caller
  st.slots[8] = st.at(16);
  st.slots[9] = 0x1002;
  st.slots[16] = 0;         // root: null next fp terminates
  st.slots[17] = 0x1003;
  u64 out[8] = {};
  const std::size_t n =
      unwind_frame_pointers(0x1000, st.at(0), st.lo(), st.hi(), out, 8);
  ASSERT_EQ(n, 4u);
  EXPECT_EQ(out[0], 0x1000u);  // leaf PC always frame 0
  EXPECT_EQ(out[1], 0x1001u);
  EXPECT_EQ(out[2], 0x1002u);
  EXPECT_EQ(out[3], 0x1003u);
}

TEST(Unwind, LeafPcOnlyWhenFpIsNull) {
  FakeStack st;
  u64 out[8] = {};
  EXPECT_EQ(unwind_frame_pointers(0xabc, 0, st.lo(), st.hi(), out, 8), 1u);
  EXPECT_EQ(out[0], 0xabcu);
}

TEST(Unwind, StopsOnMisalignedFp) {
  FakeStack st;
  u64 out[8] = {};
  EXPECT_EQ(
      unwind_frame_pointers(0xabc, st.at(0) + 4, st.lo(), st.hi(), out, 8),
      1u);
}

TEST(Unwind, StopsOnOutOfBoundsFp) {
  FakeStack st;
  u64 out[8] = {};
  // Below the stack.
  EXPECT_EQ(unwind_frame_pointers(0xabc, st.lo() - 64, st.lo(), st.hi(), out,
                                  8),
            1u);
  // Too close to the top for a two-word frame record.
  EXPECT_EQ(
      unwind_frame_pointers(0xabc, st.at(63), st.lo(), st.hi(), out, 8), 1u);
}

TEST(Unwind, CycleGuardStopsNonMonotonicChain) {
  FakeStack st;
  st.slots[8] = st.at(8);  // self-loop
  st.slots[9] = 0x2001;
  u64 out[8] = {};
  // The looping frame's ret is recorded once, then the walk stops.
  EXPECT_EQ(
      unwind_frame_pointers(0x2000, st.at(8), st.lo(), st.hi(), out, 8), 2u);
  EXPECT_EQ(out[1], 0x2001u);

  st.slots[16] = st.at(8);  // chain that moves back down
  st.slots[17] = 0x2002;
  EXPECT_EQ(
      unwind_frame_pointers(0x2000, st.at(16), st.lo(), st.hi(), out, 8), 2u);
}

TEST(Unwind, StopsOnNullReturnAddress) {
  FakeStack st;
  st.slots[0] = st.at(8);
  st.slots[1] = 0;  // null ret: frame record not yet written
  u64 out[8] = {};
  EXPECT_EQ(
      unwind_frame_pointers(0x3000, st.at(0), st.lo(), st.hi(), out, 8), 1u);
}

TEST(Unwind, TruncatesAtMaxFrames) {
  FakeStack st;
  for (std::size_t i = 0; i + 2 < 64; i += 2) {
    st.slots[i] = st.at(i + 2);
    st.slots[i + 1] = 0x4000 + i;
  }
  u64 out[4] = {};
  EXPECT_EQ(
      unwind_frame_pointers(0x9999, st.at(0), st.lo(), st.hi(), out, 4), 4u);
  EXPECT_EQ(unwind_frame_pointers(0x9999, st.at(0), st.lo(), st.hi(), out, 0),
            0u);
}

// --------------------------------------------------------------------------
// Sample ring.
// --------------------------------------------------------------------------

TEST(SampleRing, FifoAndCapacityRounding) {
  SampleRing ring(100);  // rounds up to 128
  EXPECT_EQ(ring.capacity(), 128u);
  Sample s{};
  s.nframes = 1;
  for (u64 i = 0; i < 100; ++i) {
    s.time_ns = static_cast<TimeNs>(i);
    ASSERT_TRUE(ring.push(s));
  }
  EXPECT_EQ(ring.size(), 100u);
  Sample out{};
  for (u64 i = 0; i < 100; ++i) {
    ASSERT_TRUE(ring.pop(&out));
    EXPECT_EQ(out.time_ns, static_cast<TimeNs>(i));
  }
  EXPECT_FALSE(ring.pop(&out));
}

TEST(SampleRing, DropsWhenFullAndCounts) {
  SampleRing ring(4);
  Sample s{};
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(ring.push(s));
  EXPECT_FALSE(ring.push(s));
  EXPECT_FALSE(ring.push(s));
  EXPECT_EQ(ring.dropped(), 2u);
  Sample out{};
  ASSERT_TRUE(ring.pop(&out));
  EXPECT_TRUE(ring.push(s));  // slot freed
}

// --------------------------------------------------------------------------
// Cost centers and cycle accounting.
// --------------------------------------------------------------------------

// Cost centers are telemetry::Stage values: one enum, one name table.
TEST(CostCenter, MirrorsStageValuesAndNames) {
  EXPECT_STREQ(to_string(Stage::kQueue), "queue");
  EXPECT_STREQ(to_string(Stage::kSubmit), "submit");
  EXPECT_STREQ(to_string(clamp_cost_center(255)), "other");
  EXPECT_EQ(clamp_cost_center(3), Stage::kXfer);
}

TEST(CostScope, RestoresPreviousCenterOnExit) {
  set_cost_center(Stage::kControl);
  {
    CostScope outer(Stage::kSubmit);
    EXPECT_EQ(current_cost_center(), Stage::kSubmit);
    {
      CostScope inner(Stage::kEncode);
      EXPECT_EQ(current_cost_center(), Stage::kEncode);
    }
    EXPECT_EQ(current_cost_center(), Stage::kSubmit);
  }
  EXPECT_EQ(current_cost_center(), Stage::kControl);
  set_cost_center(Stage::kOther);
}

TEST(CostScope, ExclusiveAccountingChargesEachCenterOnce) {
  if (rdcycles() == 0) GTEST_SKIP() << "no cycle counter on this arch";
  cycle_ledger().reset_for_test();
  cycle_ledger().set_enabled(true);
  const u64 t0 = rdcycles();
  {
    CostScope outer(Stage::kSubmit);
    CostScope inner(Stage::kEncode);
    // Burn a few cycles so both segments are nonzero.
    volatile u64 x = 0;
    for (int i = 0; i < 1000; ++i) x += static_cast<u64>(i);
  }
  const u64 wall = rdcycles() - t0;
  cycle_ledger().set_enabled(false);
  const auto s = cycle_ledger().snapshot();
  const u64 submit = s.cycles[static_cast<u32>(Stage::kSubmit)];
  const u64 encode = s.cycles[static_cast<u32>(Stage::kEncode)];
  EXPECT_EQ(s.visits[static_cast<u32>(Stage::kSubmit)], 1u);
  EXPECT_EQ(s.visits[static_cast<u32>(Stage::kEncode)], 1u);
  EXPECT_GT(encode, 0u);
  // Exclusive accounting: the centers partition the scoped wall time, so
  // their sum cannot exceed what the wall clock saw (same TSC).
  EXPECT_LE(submit + encode, wall);
  cycle_ledger().reset_for_test();
}

TEST(CycleLedger, AddIoOnlyCountsWhenEnabled) {
  cycle_ledger().reset_for_test();
  cycle_ledger().set_enabled(false);
  cycle_ledger().add_io();
  EXPECT_EQ(cycle_ledger().snapshot().ios, 0u);
  cycle_ledger().set_enabled(true);
  cycle_ledger().add_io();
  cycle_ledger().add_io();
  EXPECT_EQ(cycle_ledger().snapshot().ios, 2u);
  cycle_ledger().set_enabled(false);
  cycle_ledger().reset_for_test();
}

// --------------------------------------------------------------------------
// Allocation ledger.
// --------------------------------------------------------------------------

TEST(AllocLedger, AttributesToCurrentCostCenter) {
  alloc_ledger().reset_for_test();
  set_cost_center(Stage::kSubmit);
  alloc_ledger().record_alloc(64);
  alloc_ledger().record_alloc(32);
  alloc_ledger().record_free();
  set_cost_center(Stage::kOther);
  const auto s = alloc_ledger().snapshot();
  const auto& submit = s.center[static_cast<u32>(Stage::kSubmit)];
  EXPECT_EQ(submit.allocs, 2u);
  EXPECT_EQ(submit.frees, 1u);
  EXPECT_EQ(submit.bytes, 96u);
  EXPECT_EQ(s.total.allocs, 2u);
  alloc_ledger().reset_for_test();
}

TEST(AllocLedger, CostCenterIsPerThread) {
  alloc_ledger().reset_for_test();
  set_cost_center(Stage::kSubmit);
  std::thread other([] {
    // Fresh thread: token defaults to kOther, independent of ours.
    EXPECT_EQ(current_cost_center(), Stage::kOther);
    set_cost_center(Stage::kTarget);
    alloc_ledger().record_alloc(100);
  });
  other.join();
  alloc_ledger().record_alloc(1);
  set_cost_center(Stage::kOther);
  // With the interposer linked, ambient allocations (thread spawn, gtest
  // internals) also land in the ledger under whatever center was current,
  // so assert lower bounds; without it the manual records are exact.
  const auto s = alloc_ledger().snapshot();
  const auto& target = s.center[static_cast<u32>(Stage::kTarget)];
  const auto& submit = s.center[static_cast<u32>(Stage::kSubmit)];
  if (interposer_active()) {
    EXPECT_GE(target.allocs, 1u);
    EXPECT_GE(target.bytes, 100u);
    EXPECT_GE(submit.allocs, 1u);
  } else {
    EXPECT_EQ(target.allocs, 1u);
    EXPECT_EQ(target.bytes, 100u);
    EXPECT_EQ(submit.allocs, 1u);
  }
  alloc_ledger().reset_for_test();
}

TEST(AllocLedger, InterposerCountsRealAllocations) {
  if (!interposer_active()) {
    GTEST_SKIP() << "interposer not linked (build with -DOAF_PROF=ON)";
  }
  alloc_ledger().reset_for_test();
  set_cost_center(Stage::kXfer);
  {
    std::vector<char> v(4096);
    v[0] = 1;
    char* raw = static_cast<char*>(std::malloc(128));
    ASSERT_NE(raw, nullptr);
    std::free(raw);
  }
  set_cost_center(Stage::kOther);
  const auto s = alloc_ledger().snapshot();
  const auto& xfer = s.center[static_cast<u32>(Stage::kXfer)];
  EXPECT_GE(xfer.allocs, 2u);
  EXPECT_GE(xfer.bytes, 4096u + 128u);
  EXPECT_GE(xfer.frees, 2u);
  alloc_ledger().reset_for_test();
}

// --------------------------------------------------------------------------
// Reactor health.
// --------------------------------------------------------------------------

TEST(ReactorHealth, RealExecutorFeedsThePlane) {
  const auto before = reactor_health().snapshot();
  {
    sim::RealExecutor exec;
    std::atomic<bool> ran{false};
    for (int i = 0; i < 8; ++i) {
      exec.post([&] { ran = true; });
    }
    while (!ran.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  const auto after = reactor_health().snapshot();
  EXPECT_GE(after.tasks, before.tasks + 8);
  EXPECT_GE(after.runq_peak, 1u);
  const std::string j = reactor_health().json();
  auto doc = json_parse(j);
  ASSERT_TRUE(doc.is_ok()) << j;
}

// --------------------------------------------------------------------------
// prof_json aggregation.
// --------------------------------------------------------------------------

TEST(ProfJson, ParsesAndCoversAllPlanes) {
  const std::string j = prof_json();
  auto doc = json_parse(j);
  ASSERT_TRUE(doc.is_ok()) << j;
  for (const char* key :
       {"reactor", "cycles", "allocs", "sampler", "busy_poll"}) {
    EXPECT_NE(j.find("\"" + std::string(key) + "\""), std::string::npos)
        << "missing " << key << " in " << j;
  }
}

// --------------------------------------------------------------------------
// Sampler end-to-end + signal safety.
// --------------------------------------------------------------------------

/// Spin for roughly `ms` of CPU time (not sleep: sleeping threads accrue no
/// CPU time, and the sampler's timers run on the thread CPU clock).
void burn_cpu_ms(int ms) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  volatile u64 sink = 0;
  while (std::chrono::steady_clock::now() < until) {
    for (int i = 0; i < 4096; ++i) sink += static_cast<u64>(i);
  }
}

TEST(CpuProfiler, SamplesBusyThreadAndEmitsCollapsedStacks) {
  auto& prof = profiler();
  const Status reg = prof.register_this_thread("proftest");
  if (!reg.is_ok()) GTEST_SKIP() << "sampler unsupported: " << reg.to_string();
  ProfilerOptions opts;
  opts.sample_hz = 499;
  const Status st = prof.start(opts);
  if (!st.is_ok()) GTEST_SKIP() << "cannot arm timers: " << st.to_string();
  set_cost_center(Stage::kSubmit);
  burn_cpu_ms(300);
  set_cost_center(Stage::kOther);
  prof.stop();
  EXPECT_FALSE(prof.running());
  EXPECT_GE(prof.samples_total(), 5u) << prof.stats_json();
  const std::string collapsed = prof.collapsed();
  EXPECT_NE(collapsed.find("proftest;"), std::string::npos) << collapsed;
  EXPECT_NE(collapsed.find("cc:submit"), std::string::npos) << collapsed;
  auto doc = json_parse(prof.stats_json());
  ASSERT_TRUE(doc.is_ok()) << prof.stats_json();
}

/// The deadlock canary: glibc's malloc takes an arena lock, and a signal
/// handler that allocated (or locked) would self-deadlock the moment a
/// SIGPROF lands between lock and unlock. Run the allocator at full tilt
/// under a fast sampler in a child process; the child must exit cleanly.
TEST(CpuProfilerDeathTest, SamplingMidMallocDoesNotDeadlockOrCrash) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        auto& prof = profiler();
        if (!prof.register_this_thread("malloc-storm").is_ok()) std::exit(0);
        ProfilerOptions opts;
        opts.sample_hz = 2000;  // aggressive: maximize mid-malloc hits
        if (!prof.start(opts).is_ok()) std::exit(0);
        const auto until = std::chrono::steady_clock::now() +
                           std::chrono::milliseconds(400);
        while (std::chrono::steady_clock::now() < until) {
          for (int i = 0; i < 64; ++i) {
            void* p = std::malloc(static_cast<std::size_t>(16 + i * 8));
            std::free(p);
            std::vector<int> v(static_cast<std::size_t>(i + 1));
            (void)v;
          }
        }
        prof.stop();
        std::exit(0);
      },
      ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace oaf::telemetry::prof
