// Real-time executor: an epoll reactor thread driving the functional plane.
//
// Each protocol endpoint (client, target) owns one RealExecutor. Its thread
// runs posted tasks, fires timers, and polls the non-blocking sockets
// registered with it (net's stream channels), calling their readiness
// handlers inline: no other thread reads a socket, and a received PDU
// reaches its engine without a thread hop. The reactor blocks in
// epoll_pwait2 with a nanosecond timeout taken from the earliest timer, so
// sub-millisecond timers fire unrounded. A post() from another thread wakes
// it through an eventfd, and only when it is asleep; a post() from the
// reactor thread itself is a vector push. Timers use the same steady clock
// that now() reports.
#pragma once

#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/executor.h"

struct epoll_event;

namespace oaf::sim {

class RealExecutor final : public Executor {
 public:
  /// A non-blocking fd the reactor polls, and what to run when it is ready.
  class IoSource {
   public:
    virtual ~IoSource() = default;
    /// Readiness `events` (EPOLL* bits) on the source's fd. Reactor thread.
    virtual void on_ready(u32 events) = 0;
    /// The reactor is going away (its thread has stopped): the source must
    /// not call it again.
    virtual void on_reactor_gone() = 0;
  };

  RealExecutor();
  ~RealExecutor() override;

  RealExecutor(const RealExecutor&) = delete;
  RealExecutor& operator=(const RealExecutor&) = delete;

  void post(Fn fn) override;
  void schedule_after(DurNs delay, Fn fn) override;
  [[nodiscard]] TimeNs now() const override { return clock_now(); }

  /// Block the *calling* thread until the executor has no ready work and no
  /// due timers (used by tests to quiesce).
  void drain();

  /// The reactor whose thread is calling, or nullptr. A task posted through
  /// any Executor that decorates a RealExecutor finds its reactor here.
  static RealExecutor* current();

  /// Reactor thread: keep `src` alive and dispatch its readiness events
  /// until release(src).
  void adopt(std::shared_ptr<IoSource> src);

  /// Any thread: poll `fd` for `events` (EPOLLIN/EPOLLOUT; 0 = not at all)
  /// on behalf of `src`; `was` is what it was polled for until now. Callers
  /// serialize their own calls per fd.
  void poll(int fd, IoSource* src, u32 was, u32 events);

  /// Any thread: drop adopt()'s reference once the current dispatch round
  /// is over, so an event already returned for `src` still finds it alive.
  /// Its fd must no longer be polled.
  void release(IoSource* src);

 private:
  [[nodiscard]] TimeNs clock_now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

  void loop();
  /// Wait up to `wait_ns` (< 0: no limit) for readiness, then take in the
  /// other threads' posts. Returns the ready events, or -1 once stopping.
  int wait(epoll_event* events, int max_events, DurNs wait_ns);
  /// Run the ready queue as swapped batches, a bounded number of rounds.
  void run_ready();
  void wake();

  const std::chrono::steady_clock::time_point start_;
  const int epfd_;
  const int wakefd_;
  std::thread thread_;

  std::mutex mu_;
  std::condition_variable drained_cv_;
  std::vector<Fn> incoming_;  ///< posts from other threads (guarded by mu_)
  bool asleep_ = false;       ///< reactor blocked in epoll (guarded by mu_)
  TimeNs wake_at_ = 0;        ///< its earliest timer when it slept (mu_)
  bool stop_ = false;         ///< (guarded by mu_)

  // Reactor thread only.
  std::vector<Fn> ready_;
  std::vector<Fn> batch_;
  std::multimap<TimeNs, Fn> timers_;
  std::unordered_map<IoSource*, std::shared_ptr<IoSource>> sources_;
  std::vector<IoSource*> retired_;  ///< released; erased after dispatch
};

}  // namespace oaf::sim
