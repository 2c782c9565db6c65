// Multipath I/O: a PathGroup over N associations must survive the loss of
// any one path mid-burst with zero failed I/Os and zero duplicate
// completions, steer around ANA-degraded paths, park submissions while no
// path is usable, and degenerate to plain single-path reconnect semantics
// at N == 1. Faults use the seeded net::FaultChannel (and its deterministic
// kill_at trigger), so every scenario replays bit-identically.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <string>

#include "af/locality.h"
#include "net/fault_channel.h"
#include "net/pipe_channel.h"
#include "nvmf/path_group.h"
#include "nvmf/path_selector.h"
#include "nvmf/target_service.h"
#include "sim/scheduler.h"
#include "ssd/real_device.h"

namespace oaf::nvmf {
namespace {

// --------------------------------------------------------------------------
// Selector policy units (pure logic, no harness)
// --------------------------------------------------------------------------

PathView view(u32 index, u32 inflight, DurNs ewma = 0) {
  PathView v;
  v.index = index;
  v.inflight = inflight;
  v.ewma_ns = ewma;
  return v;
}

TEST(PathSelectorTest, RoundRobinRotates) {
  RoundRobinSelector s;
  const std::vector<PathView> paths{view(0, 0), view(1, 0), view(2, 0)};
  EXPECT_EQ(s.pick(paths), 0u);
  EXPECT_EQ(s.pick(paths), 1u);
  EXPECT_EQ(s.pick(paths), 2u);
  EXPECT_EQ(s.pick(paths), 0u);
}

TEST(PathSelectorTest, QueueDepthPicksShortestQueue) {
  QueueDepthSelector s;
  EXPECT_EQ(s.pick({view(0, 5), view(1, 2), view(2, 9)}), 1u);
  // Ties break to the lowest position, deterministically.
  EXPECT_EQ(s.pick({view(0, 3), view(1, 3)}), 0u);
}

TEST(PathSelectorTest, LatencyEwmaPrefersUnprobedThenFastest) {
  LatencyEwmaSelector s;
  // An unprobed path (ewma 0) wins outright so it gets measured.
  EXPECT_EQ(s.pick({view(0, 0, 900), view(1, 0, 0)}), 1u);
  EXPECT_EQ(s.pick({view(0, 0, 900), view(1, 0, 400)}), 1u);
  EXPECT_EQ(s.pick({view(0, 0, 300), view(1, 0, 400)}), 0u);
}

TEST(PathSelectorTest, FactoryResolvesNamesAndRejectsUnknown) {
  EXPECT_NE(make_selector("round-robin"), nullptr);
  EXPECT_NE(make_selector("queue-depth"), nullptr);
  EXPECT_NE(make_selector("latency-ewma"), nullptr);
  EXPECT_EQ(make_selector("coin-flip"), nullptr);
}

// --------------------------------------------------------------------------
// Harness
// --------------------------------------------------------------------------

/// PathGroup dialing a NvmfTargetService over N FaultChannel-wrapped pipe
/// pairs. Path 0 negotiates shm (the paper's AF data path); the rest are
/// stock TCP — the headline topology of one fast lane plus TCP spares.
struct MultipathHarness {
  static constexpr u32 kMaxPaths = 4;

  explicit MultipathHarness(u32 npaths,
                            std::unique_ptr<PathSelector> selector = nullptr)
      : broker(npaths), device(sched, 512, 1 << 18), subsystem("nqn.mp") {
    (void)subsystem.add_namespace(1, &device);
    TargetServiceOptions sopts;
    sopts.af = af::AfConfig::oaf();
    service = std::make_unique<NvmfTargetService>(sched, copier, broker,
                                                  subsystem, sopts);
    PathGroupOptions gopts;
    gopts.name = "mp";
    group = std::make_unique<PathGroup>(sched, std::move(gopts),
                                        std::move(selector));
    for (u32 i = 0; i < npaths; ++i) {
      const af::AfConfig cfg =
          i == 0 ? af::AfConfig::oaf() : af::AfConfig::stock_tcp();
      InitiatorOptions iopts{cfg, 8, path_name(i), 0, {}};
      iopts.command_timeout_ns = 5'000'000;
      iopts.recovery.max_attempts = 10;
      iopts.recovery.handshake_timeout_ns = 10'000'000;
      group->add_path(std::make_unique<NvmfInitiator>(
          sched, [this, i] { return dial(i); }, copier, broker, iopts));
    }
    group->connect([](Status) {});
  }

  static std::string path_name(u32 i) { return "mp.p" + std::to_string(i); }

  std::unique_ptr<net::MsgChannel> dial(u32 path) {
    dials[path]++;
    net::FaultPolicy p;
    p.seed = 1 + path * 17 + static_cast<u64>(dials[path]) * 1000;
    auto [c, t] =
        net::wrap_fault_pair(net::make_pipe_channel_pair(sched, sched), p);
    client_ch[path] = c.get();
    target_ch[path] = t.get();
    service->accept(std::move(t), path_name(path));
    return std::move(c);
  }

  [[nodiscard]] bool all_connected() const {
    for (size_t i = 0; i < group->path_count(); ++i) {
      if (!group->path(i).connected()) return false;
    }
    return true;
  }

  sim::Scheduler sched;
  net::InlineCopier copier;
  af::ShmBroker broker;
  ssd::RealDevice device;
  ssd::Subsystem subsystem;
  std::unique_ptr<NvmfTargetService> service;
  std::unique_ptr<PathGroup> group;

  std::array<net::FaultChannel*, kMaxPaths> client_ch{};
  std::array<net::FaultChannel*, kMaxPaths> target_ch{};
  std::array<int, kMaxPaths> dials{};
};

/// Issue `n` 4 KiB writes and count per-command completions exactly-once.
struct Burst {
  explicit Burst(int n) : fires(static_cast<size_t>(n), 0), data(4096, 0xA5) {}

  void submit(PathGroup& group) {
    for (size_t i = 0; i < fires.size(); ++i) {
      group.write(1, static_cast<u64>(i) * 8, data,
                  [this, i](IoSession::IoResult r) {
                    fires[i]++;
                    (r.ok() ? ok : failed)++;
                  });
    }
  }

  [[nodiscard]] bool each_exactly_once() const {
    for (const int f : fires) {
      if (f != 1) return false;
    }
    return true;
  }

  std::vector<int> fires;
  std::vector<u8> data;
  int ok = 0;
  int failed = 0;
};

// --------------------------------------------------------------------------
// Failover
// --------------------------------------------------------------------------

/// The headline scenario, once per selector policy: one shm path plus two
/// TCP paths, the shm path's cable cut mid-burst at a deterministic PDU —
/// every I/O still completes exactly once with zero failures.
void run_kill_mid_burst(const char* policy) {
  MultipathHarness h(3, make_selector(policy));
  h.sched.run();
  ASSERT_TRUE(h.all_connected()) << policy;
  ASSERT_TRUE(h.group->path(0).shm_active()) << policy;

  h.client_ch[0]->kill_at(5);  // the shm path dies on its 5th PDU
  Burst burst(60);
  burst.submit(*h.group);
  h.sched.run();

  EXPECT_EQ(burst.ok, 60) << policy;
  EXPECT_EQ(burst.failed, 0) << policy;
  EXPECT_TRUE(burst.each_exactly_once()) << policy;
  EXPECT_TRUE(h.client_ch[0]->killed()) << policy;
  EXPECT_TRUE(h.group->path(0).dead()) << policy;
  EXPECT_GE(h.group->failovers(), 1u) << policy;
  EXPECT_GE(h.group->redrives(), 1u) << policy;
  EXPECT_EQ(h.group->live_now(), 0u) << policy;
}

TEST(MultipathTest, KillShmPathMidBurstRoundRobin) {
  run_kill_mid_burst("round-robin");
}

TEST(MultipathTest, KillShmPathMidBurstQueueDepth) {
  run_kill_mid_burst("queue-depth");
}

TEST(MultipathTest, KillShmPathMidBurstLatencyEwma) {
  run_kill_mid_burst("latency-ewma");
}

TEST(MultipathTest, KillAnyOneOfThreePathsZeroFailedIos) {
  for (u32 victim = 0; victim < 3; ++victim) {
    MultipathHarness h(3);
    h.sched.run();
    ASSERT_TRUE(h.all_connected()) << "victim " << victim;

    h.client_ch[victim]->kill_at(3);
    Burst burst(45);
    burst.submit(*h.group);
    h.sched.run();

    EXPECT_EQ(burst.ok, 45) << "victim " << victim;
    EXPECT_EQ(burst.failed, 0) << "victim " << victim;
    EXPECT_TRUE(burst.each_exactly_once()) << "victim " << victim;
  }
}

TEST(MultipathTest, SurvivingPathsAbsorbTheDeadPathsShare) {
  MultipathHarness h(3);
  h.sched.run();
  ASSERT_TRUE(h.all_connected());

  h.client_ch[2]->kill_at(2);
  Burst burst(30);
  burst.submit(*h.group);
  h.sched.run();
  ASSERT_EQ(burst.ok, 30);

  // Every success landed on some path exactly once (ios_completed counts
  // only OK completions, so the dead path's transport errors don't inflate
  // the sum), and the survivors stayed healthy throughout.
  EXPECT_EQ(h.group->path(0).ios_completed() +
                h.group->path(1).ios_completed() +
                h.group->path(2).ios_completed(),
            30u);
  EXPECT_GE(h.group->redrives(), 1u);
  EXPECT_FALSE(h.group->path(0).dead());
  EXPECT_FALSE(h.group->path(1).dead());
}

TEST(MultipathTest, AllPathsDeadFailsCleanlyWithoutHanging) {
  MultipathHarness h(2);
  h.sched.run();
  ASSERT_TRUE(h.all_connected());

  h.client_ch[0]->kill_at(1);
  h.client_ch[1]->kill_at(1);
  // Exhaust both reconnect ladders quickly: make every re-dial fail too.
  for (u32 i = 0; i < 2; ++i) h.group->path(i).force_recover("test: kill all");
  Burst burst(10);
  burst.submit(*h.group);
  h.sched.run();

  // With no path left, every command must still complete (with an error) —
  // never hang — and exactly once.
  EXPECT_EQ(burst.ok + burst.failed, 10);
  EXPECT_TRUE(burst.each_exactly_once());
  EXPECT_EQ(h.group->live_now(), 0u);
  EXPECT_EQ(h.group->parked_now(), 0u);
}

TEST(MultipathTest, LivePathFailureIsTheCommandsAnswer) {
  // The path is the only place that retries a command; the group moves a
  // command only off a path that died. A read that fails on a live path
  // reaches the caller after a single attempt, not after a round of
  // re-drives.
  MultipathHarness h(2);
  h.sched.run();
  ASSERT_TRUE(h.all_connected());
  for (u32 i = 0; i < 2; ++i) {
    h.target_ch[i]->set_fault([](pdu::Pdu& p) {
      if (auto* c2h = p.as<pdu::C2HData>()) c2h->offset = u64{1} << 40;
      return true;
    });
  }

  std::vector<u8> rbuf(4096);
  std::vector<pdu::NvmeStatus> answers;
  h.group->read(1, 0, rbuf, [&](IoSession::IoResult r) {
    answers.push_back(r.cpl.status);
  });
  h.sched.run();

  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0], pdu::NvmeStatus::kDataTransferError);
  EXPECT_EQ(h.group->redrives(), 0u);
  EXPECT_EQ(h.group->path(0).ios_completed() + h.group->path(1).ios_completed(),
            1u);
  EXPECT_FALSE(h.group->path(0).dead());
  EXPECT_FALSE(h.group->path(1).dead());
  EXPECT_EQ(h.group->live_now(), 0u);
}

// --------------------------------------------------------------------------
// ANA steering
// --------------------------------------------------------------------------

TEST(MultipathTest, AnaNonOptimizedHoldsPathInReserve) {
  MultipathHarness h(3);
  h.sched.run();
  ASSERT_TRUE(h.all_connected());

  ASSERT_TRUE(h.service->set_ana_state(
      MultipathHarness::path_name(0), pdu::AnaState::kNonOptimized,
      "admin drain"));
  h.sched.run();
  ASSERT_EQ(h.group->path(0).ana_state(), pdu::AnaState::kNonOptimized);
  EXPECT_EQ(h.group->path(0).resilience().ana_changes, 1u);

  const u64 before = h.group->path(0).ios_completed();
  Burst burst(30);
  burst.submit(*h.group);
  h.sched.run();
  EXPECT_EQ(burst.ok, 30);
  // While optimized paths exist, the non-optimized one carries nothing new.
  EXPECT_EQ(h.group->path(0).ios_completed(), before);
}

TEST(MultipathTest, NonOptimizedPathStillServesWhenItIsAllThatIsLeft) {
  MultipathHarness h(2);
  h.sched.run();
  ASSERT_TRUE(h.all_connected());

  ASSERT_TRUE(h.service->set_ana_state(MultipathHarness::path_name(0),
                                       pdu::AnaState::kNonOptimized,
                                       "degraded link"));
  h.sched.run();
  h.client_ch[1]->kill_at(2);  // the only optimized path dies
  Burst burst(20);
  burst.submit(*h.group);
  h.sched.run();
  EXPECT_EQ(burst.ok, 20);
  EXPECT_TRUE(burst.each_exactly_once());
  EXPECT_GT(h.group->path(0).ios_completed(), 0u);
}

TEST(MultipathTest, InaccessibleEverywhereParksUntilReopened) {
  MultipathHarness h(2);
  h.sched.run();
  ASSERT_TRUE(h.all_connected());

  for (u32 i = 0; i < 2; ++i) {
    ASSERT_TRUE(h.service->set_ana_state(MultipathHarness::path_name(i),
                                         pdu::AnaState::kInaccessible,
                                         "maintenance window"));
  }
  h.sched.run();

  Burst burst(5);
  burst.submit(*h.group);
  h.sched.run();
  // Nothing is eligible, but nothing is dead either: wait, don't fail.
  EXPECT_EQ(burst.ok + burst.failed, 0);
  EXPECT_EQ(h.group->parked_now(), 5u);
  EXPECT_GE(h.group->parked_total(), 5u);

  ASSERT_TRUE(h.service->set_ana_state(MultipathHarness::path_name(1),
                                       pdu::AnaState::kOptimized,
                                       "maintenance done"));
  h.sched.run();
  EXPECT_EQ(burst.ok, 5);
  EXPECT_TRUE(burst.each_exactly_once());
  EXPECT_EQ(h.group->parked_now(), 0u);
}

TEST(MultipathTest, ParkOverflowFailsFastWithQueueFull) {
  // Bounded parked queue (DESIGN.md §12): with every path held in an ANA
  // maintenance window, only kMaxParked submissions wait; the excess fails
  // fast with retryable kQueueFull instead of growing the queue forever.
  constexpr u32 kParked = PathGroup::kMaxParked;
  MultipathHarness h(2);
  h.sched.run();
  ASSERT_TRUE(h.all_connected());
  for (u32 i = 0; i < 2; ++i) {
    ASSERT_TRUE(h.service->set_ana_state(MultipathHarness::path_name(i),
                                         pdu::AnaState::kInaccessible,
                                         "maintenance window"));
  }
  h.sched.run();

  std::vector<u8> data(4096, 0xA5);
  std::vector<pdu::NvmeStatus> overflowed;
  int completed_ok = 0;
  for (u32 i = 0; i < kParked + 6; ++i) {
    h.group->write(1, static_cast<u64>(i) * 8, data,
                   [&](IoSession::IoResult r) {
                     if (r.ok()) {
                       completed_ok++;
                     } else {
                       overflowed.push_back(r.cpl.status);
                     }
                   });
  }
  h.sched.run();

  EXPECT_EQ(h.group->parked_now(), kParked);
  EXPECT_EQ(h.group->park_overflows(), 6u);
  ASSERT_EQ(overflowed.size(), 6u);
  for (const auto s : overflowed) EXPECT_EQ(s, pdu::NvmeStatus::kQueueFull);
  EXPECT_EQ(completed_ok, 0);

  // Drain after recovery: reopening one path completes every parked write
  // exactly once, and the overflow left no stuck live entries.
  ASSERT_TRUE(h.service->set_ana_state(MultipathHarness::path_name(0),
                                       pdu::AnaState::kOptimized,
                                       "maintenance done"));
  h.sched.run();
  EXPECT_EQ(completed_ok, static_cast<int>(kParked));
  EXPECT_EQ(h.group->parked_now(), 0u);
  EXPECT_EQ(h.group->live_now(), 0u);
}

TEST(MultipathTest, GroupStillUsableAfterParkOverflow) {
  // The fast-fail path must leave the group coherent: once a path returns,
  // fresh submissions flow normally and nothing double-completes.
  constexpr u32 kParked = PathGroup::kMaxParked;
  MultipathHarness h(2);
  h.sched.run();
  ASSERT_TRUE(h.all_connected());
  for (u32 i = 0; i < 2; ++i) {
    ASSERT_TRUE(h.service->set_ana_state(MultipathHarness::path_name(i),
                                         pdu::AnaState::kInaccessible, "mw"));
  }
  h.sched.run();

  Burst first(static_cast<int>(kParked) + 4);  // kParked park, 4 overflow
  first.submit(*h.group);
  h.sched.run();
  EXPECT_EQ(h.group->park_overflows(), 4u);
  EXPECT_EQ(first.failed, 4);

  for (u32 i = 0; i < 2; ++i) {
    ASSERT_TRUE(h.service->set_ana_state(MultipathHarness::path_name(i),
                                         pdu::AnaState::kOptimized, "done"));
  }
  h.sched.run();
  EXPECT_EQ(first.ok, static_cast<int>(kParked));
  EXPECT_TRUE(first.each_exactly_once());

  Burst second(8);
  second.submit(*h.group);
  h.sched.run();
  EXPECT_EQ(second.ok, 8);
  EXPECT_TRUE(second.each_exactly_once());
  EXPECT_EQ(h.group->live_now(), 0u);
}

TEST(MultipathTest, StaleAnaLogNeverRegressesState) {
  MultipathHarness h(2);
  h.sched.run();
  ASSERT_TRUE(h.all_connected());

  auto inject = [&](u64 seq, pdu::AnaState s) {
    pdu::AnaLog log;
    log.state = s;
    log.change_seq = seq;
    log.reason = "forged";
    pdu::Pdu p;
    p.header = log;
    h.target_ch[0]->inject(std::move(p));
    h.sched.run();
  };

  inject(5, pdu::AnaState::kInaccessible);
  EXPECT_EQ(h.group->path(0).ana_state(), pdu::AnaState::kInaccessible);
  // A reordered older notice arrives late: it must be ignored.
  inject(3, pdu::AnaState::kOptimized);
  EXPECT_EQ(h.group->path(0).ana_state(), pdu::AnaState::kInaccessible);
  inject(6, pdu::AnaState::kOptimized);
  EXPECT_EQ(h.group->path(0).ana_state(), pdu::AnaState::kOptimized);
  EXPECT_EQ(h.group->path(0).resilience().ana_changes, 2u);
}

// --------------------------------------------------------------------------
// Degenerate single path
// --------------------------------------------------------------------------

TEST(MultipathTest, SinglePathDegeneratesToReconnectSemantics) {
  MultipathHarness h(1);
  h.sched.run();
  ASSERT_TRUE(h.all_connected());
  // N == 1 delegates zero-copy straight through to the shm path.
  EXPECT_EQ(h.group->supports_zero_copy(),
            h.group->path(0).supports_zero_copy());

  Burst burst(10);
  burst.submit(*h.group);
  h.group->path(0).force_recover("test: transient fault");
  h.sched.run();

  // With nowhere to re-drive, the path's own reconnect machinery carries
  // the burst: it re-dials, replays, and completes everything.
  EXPECT_EQ(burst.ok, 10);
  EXPECT_TRUE(burst.each_exactly_once());
  EXPECT_FALSE(h.group->path(0).dead());
  EXPECT_GE(h.group->path(0).resilience().reconnects, 1u);
  EXPECT_EQ(h.group->redrives(), 0u);
  EXPECT_EQ(h.dials[0], 2);
}

}  // namespace
}  // namespace oaf::nvmf
