// Model-checked invariants of the multipath handoff fence (DESIGN.md §11).
//
// PathGroup keys every live command by a group sequence number in a map and
// makes "erase the entry, then deliver the callback" the exactly-once
// fence: whichever completion event wins the erase owns delivery, and every
// later event for the same gseq finds nothing and is suppressed. The group
// itself runs on one executor, so the events are serialized — but they can
// arrive in ANY order (a half-dead path's late duplicate can land before or
// after the redriven path's completion, paths can die in any order). The
// models below run the same fence protocol under the model checker with a
// chk::mutex standing in for event-loop serialization, proving delivery is
// exactly-once and commands are never lost under every arrival order the
// loop could produce.
#include <gtest/gtest.h>

#include "chk/atomic.h"
#include "chk/check.h"

namespace oaf::nvmf {
namespace {

using oaf::chk::RunResult;
using oaf::u32;

/// The fence itself: a command was redriven from a dying path onto a
/// survivor, and now two success completions race for it — the survivor's
/// and a late duplicate from the original path (its capsule had already
/// executed before the fault). Exactly one may reach the application.
struct LateDuplicateFenceModel {
  static constexpr u32 kThreads = 2;

  oaf::chk::mutex mu;
  bool live = true;  ///< gseq present in the map
  int delivered = 0;
  int suppressed = 0;

  void complete() {
    mu.lock();
    const bool won = live;
    if (won) live = false;  // erase-before-deliver
    mu.unlock();
    if (won) {
      delivered++;  // application callback
    } else {
      mu.lock();
      suppressed++;
      mu.unlock();
    }
  }

  void thread(u32) { complete(); }

  void finish() {
    CHK_ASSERT(delivered == 1, "duplicate or lost delivery through the fence");
    CHK_ASSERT(suppressed == 1, "late duplicate was not suppressed");
  }
};

TEST(ChkPathHandoff, LateDuplicateCompletionDeliversExactlyOnce) {
  const RunResult r = oaf::chk::check<LateDuplicateFenceModel>();
  EXPECT_TRUE(r.ok) << r.report();
  EXPECT_TRUE(r.exhausted);
}

/// Fail over, never retry (DESIGN.md §11.4): the path carrying a command
/// is the only place that retries it, and the group moves the command only
/// when that path died. `kDeaths` of three paths die, in any order, while
/// the path that carries the command may answer it first with an error of
/// its own. A failure moves the command only when its path is dead and
/// another path is not; a dead path never comes back, so the command moves
/// at most N - 1 times. Whatever the order, the application sees exactly
/// one answer, and nothing is left live.
template <u32 kDeaths>
struct FailoverOnlyOffDeadPathsModel {
  static constexpr u32 kPaths = 3;
  static constexpr u32 kThreads = kDeaths + 1;  ///< one per death + answer

  oaf::chk::mutex mu;
  bool dead[kPaths] = {};
  bool live = true;
  u32 path = 0;  ///< the path carrying the command
  u32 moves = 0;
  int delivered = 0;
  bool misrouted = false;  ///< a failure moved or surfaced against the rule

  [[nodiscard]] bool all_dead() const {
    for (const bool d : dead) {
      if (!d) return false;
    }
    return true;
  }

  /// PathGroup::on_result for a failure from path `from`.
  void on_failure(u32 from) {
    if (!live) return;  // late duplicate: fenced
    if (dead[from] && !all_dead()) {
      u32 next = 0;
      while (dead[next]) next++;  // any survivor will do
      misrouted |= !dead[from] || dead[next];
      path = next;
      moves++;
      return;
    }
    live = false;  // erase, then deliver
    delivered++;
    misrouted |= dead[from] && !all_dead();
  }

  void thread(u32 t) {
    mu.lock();
    if (t < kDeaths) {
      // Path t dies: abort_connection fails what it carries.
      dead[t] = true;
      if (path == t) on_failure(t);
    } else if (!dead[path]) {
      // The live carrier answers with an error of its own: the answer.
      on_failure(path);
    }
    mu.unlock();
  }

  void finish() {
    CHK_ASSERT(delivered == 1,
               "application saw zero or multiple terminal callbacks");
    CHK_ASSERT(!live, "command leaked: still live after all events");
    CHK_ASSERT(moves <= kPaths - 1, "a command moved more than N-1 times");
    CHK_ASSERT(!misrouted,
               "a live path's failure moved, a command moved onto a dead "
               "path, or a dead path's failure surfaced with a survivor left");
  }
};

template <class Model>
void check_every_interleaving() {
  oaf::chk::Options opts;
  opts.preemption_bound = -1;  // every interleaving, not a bounded sample
  const RunResult r = oaf::chk::check<Model>(opts);
  EXPECT_TRUE(r.ok) << r.report();
  EXPECT_TRUE(r.exhausted);
}

TEST(ChkPathHandoff, FailoverOnlyOffDeadPathsIsExactlyOnceAndBounded) {
  check_every_interleaving<FailoverOnlyOffDeadPathsModel<2>>();  // one lives
  check_every_interleaving<FailoverOnlyOffDeadPathsModel<3>>();  // all die
}

/// Parking vs drain: submissions that find no eligible path park; a path
/// coming back drains the deque. A submission racing the drain must end up
/// either issued (the drain saw it) or still parked (it arrived after) —
/// never lost, never issued twice.
struct ParkDrainModel {
  static constexpr u32 kThreads = 2;
  static constexpr u32 kCmds = 2;

  oaf::chk::mutex mu;
  bool path_up = false;
  u32 parked = 0;   ///< commands waiting in the deque
  u32 issued = 0;   ///< commands handed to a path
  u32 submitted = 0;

  void submit_one() {
    mu.lock();
    submitted++;
    if (path_up) {
      issued++;
    } else {
      parked++;
    }
    mu.unlock();
  }

  void drain() {
    mu.lock();
    path_up = true;
    issued += parked;  // drain_parked(): every waiter moves, exactly once
    parked = 0;
    mu.unlock();
  }

  void thread(u32 t) {
    if (t == 0) {
      for (u32 i = 0; i < kCmds; ++i) submit_one();
    } else {
      drain();
    }
  }

  void finish() {
    CHK_ASSERT(submitted == kCmds, "wrong submission count");
    CHK_ASSERT(issued + parked == submitted,
               "command lost or duplicated across the park/drain handoff");
    // Once the path is up nothing may remain parked.
    CHK_ASSERT(!path_up || parked == 0, "drain left waiters behind");
  }
};

TEST(ChkPathHandoff, ParkDrainRaceNeverLosesACommand) {
  const RunResult r = oaf::chk::check<ParkDrainModel>();
  EXPECT_TRUE(r.ok) << r.report();
  EXPECT_TRUE(r.exhausted);
}

}  // namespace
}  // namespace oaf::nvmf
