#include "sim/real_executor.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/log.h"
#include "telemetry/prof/cost_center.h"
#include "telemetry/prof/reactor_health.h"

namespace oaf::sim {

namespace {

constexpr int kMaxEvents = 64;
/// Ready-queue rounds run between fd polls while tasks keep posting tasks:
/// bounds how long a chain of self-posts can hold off socket I/O.
constexpr int kTaskRounds = 16;
constexpr TimeNs kNever = LLONG_MAX;

constinit thread_local RealExecutor* tl_current = nullptr;

int checked(int fd, const char* what) {
  if (fd < 0) {
    OAF_ERROR("RealExecutor: %s: %s", what, std::strerror(errno));
    std::abort();
  }
  return fd;
}

/// Reactor bookkeeping after one task or readiness dispatch that began at
/// `t0`: the work may have left a per-I/O cost center stamped, and CPU
/// burned between dispatches belongs to the reactor itself.
void account(TimeNs t0, TimeNs t1, u64 runq) {
  telemetry::prof::set_cost_center(telemetry::Stage::kReactor);
  telemetry::prof::reactor_health().on_task(t1 - t0, runq);
}

}  // namespace

RealExecutor::RealExecutor()
    : start_(std::chrono::steady_clock::now()),
      epfd_(checked(::epoll_create1(EPOLL_CLOEXEC), "epoll_create1")),
      wakefd_(checked(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC), "eventfd")) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = nullptr;  // the wake-up fd; every IoSource is non-null
  checked(::epoll_ctl(epfd_, EPOLL_CTL_ADD, wakefd_, &ev), "epoll_ctl");
  thread_ = std::thread([this] { loop(); });
}

RealExecutor::~RealExecutor() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  wake();
  thread_.join();
  for (auto& [raw, src] : sources_) src->on_reactor_gone();
  sources_.clear();
  ::close(epfd_);
  ::close(wakefd_);
}

RealExecutor* RealExecutor::current() { return tl_current; }

void RealExecutor::post(Fn fn) {
  if (tl_current == this) {
    ready_.push_back(std::move(fn));
    return;
  }
  bool asleep = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    incoming_.push_back(std::move(fn));
    asleep = std::exchange(asleep_, false);
  }
  if (asleep) wake();
}

void RealExecutor::schedule_after(DurNs delay, Fn fn) {
  const TimeNs at = clock_now() + std::max<DurNs>(delay, 0);
  if (tl_current == this) {
    timers_.emplace(at, std::move(fn));
    return;
  }
  post([this, at, fn = std::move(fn)]() mutable {
    timers_.emplace(at, std::move(fn));
  });
}

void RealExecutor::drain() {
  std::unique_lock<std::mutex> lk(mu_);
  drained_cv_.wait(lk, [this] {
    return asleep_ && incoming_.empty() && wake_at_ > clock_now();
  });
}

void RealExecutor::adopt(std::shared_ptr<IoSource> src) {
  IoSource* raw = src.get();
  sources_.emplace(raw, std::move(src));
}

void RealExecutor::poll(int fd, IoSource* src, u32 was, u32 events) {
  if (was == events) return;
  epoll_event ev{};
  ev.events = events;
  ev.data.ptr = src;
  const int op = was == 0      ? EPOLL_CTL_ADD
                 : events == 0 ? EPOLL_CTL_DEL
                               : EPOLL_CTL_MOD;
  if (::epoll_ctl(epfd_, op, fd, &ev) != 0) {
    OAF_ERROR("RealExecutor: epoll_ctl(fd %d): %s", fd, std::strerror(errno));
  }
}

void RealExecutor::release(IoSource* src) {
  post([this, src] { retired_.push_back(src); });
}

void RealExecutor::wake() {
  const u64 one = 1;
  (void)!::write(wakefd_, &one, sizeof(one));
}

void RealExecutor::loop() {
  tl_current = this;
  epoll_event events[kMaxEvents];
  for (;;) {
    DurNs wait_ns = 0;
    if (ready_.empty()) {
      wait_ns = timers_.empty()
                    ? -1
                    : std::max<DurNs>(0, timers_.begin()->first - clock_now());
    }
    const int n = wait(events, kMaxEvents, wait_ns);
    if (n < 0) break;
    if (!timers_.empty()) {
      const TimeNs t = clock_now();
      while (!timers_.empty() && timers_.begin()->first <= t) {
        ready_.push_back(std::move(timers_.begin()->second));
        timers_.erase(timers_.begin());
      }
    }
    // Work posted before the sockets became ready runs first: a task another
    // thread posted ahead of writing to a socket precedes the PDU it sent.
    run_ready();
    for (int i = 0; i < n; ++i) {
      auto* src = static_cast<IoSource*>(events[i].data.ptr);
      if (src == nullptr) {
        u64 count = 0;
        (void)!::read(wakefd_, &count, sizeof(count));
        continue;
      }
      const TimeNs t0 = clock_now();
      src->on_ready(events[i].events);
      account(t0, clock_now(), static_cast<u64>(n - i));
    }
    run_ready();
    // Only now, with no returned event left to dispatch, may a released
    // source die; its fd is out of the epoll set, so no later wait returns
    // it.
    for (IoSource* src : retired_) sources_.erase(src);
    retired_.clear();
  }
  tl_current = nullptr;
}

int RealExecutor::wait(epoll_event* events, int max_events, DurNs wait_ns) {
  bool slept = false;
  if (wait_ns != 0) {
    std::lock_guard<std::mutex> lk(mu_);
    if (stop_) return -1;
    if (incoming_.empty()) {
      asleep_ = true;
      wake_at_ = wait_ns < 0 ? kNever : clock_now() + wait_ns;
      drained_cv_.notify_all();
      slept = true;
    } else {
      wait_ns = 0;
    }
  }
  const DurNs ns = std::max<DurNs>(wait_ns, 0);
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(ns / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(ns % 1'000'000'000);
  const TimeNs idle0 = slept ? clock_now() : 0;
  int n = ::epoll_pwait2(epfd_, events, max_events,
                         wait_ns < 0 ? nullptr : &ts, nullptr);
  if (n < 0) {
    if (errno != EINTR) {
      OAF_ERROR("RealExecutor: epoll_pwait2: %s", std::strerror(errno));
    }
    n = 0;
  }
  if (slept) telemetry::prof::reactor_health().on_idle(clock_now() - idle0);
  std::lock_guard<std::mutex> lk(mu_);
  asleep_ = false;
  if (stop_) return -1;
  for (Fn& fn : incoming_) ready_.push_back(std::move(fn));
  incoming_.clear();
  return n;
}

void RealExecutor::run_ready() {
  for (int round = 0; round < kTaskRounds && !ready_.empty(); ++round) {
    batch_.swap(ready_);
    for (size_t i = 0; i < batch_.size(); ++i) {
      const TimeNs t0 = clock_now();
      batch_[i]();
      account(t0, clock_now(), batch_.size() - i);
    }
    batch_.clear();
  }
}

}  // namespace oaf::sim
