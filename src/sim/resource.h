// Queueing primitives for the timing plane.
//
// Resource models a station with `servers` identical servers and a FIFO
// queue — used for NVMe device internal parallelism (paper Fig 14's
// concurrency scaling) and per-core TCP stack processing. Throttle models a
// serial link: transmissions occupy the wire back-to-back at a fixed byte
// rate — used for NIC serialization (the 10/25/100 Gbps caps in Figs 2, 11).
#pragma once

#include <deque>

#include "common/executor.h"
#include "sim/scheduler.h"

namespace oaf::sim {

class Resource {
 public:
  using Fn = Executor::Fn;  // move-only; jobs may carry linear tokens

  Resource(Executor& exec, int servers)
      : exec_(exec), free_(servers), servers_(servers) {}

  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  /// Submit a job needing `service_time` on one server; `on_done` fires at
  /// the virtual instant the job completes (after any queueing delay).
  void submit(DurNs service_time, Fn on_done) {
    jobs_submitted_++;
    if (free_ > 0) {
      start(service_time, std::move(on_done));
    } else {
      queue_.push_back(Job{service_time, std::move(on_done)});
      if (queue_.size() > max_queue_len_) max_queue_len_ = queue_.size();
    }
  }

  [[nodiscard]] int servers() const { return servers_; }
  [[nodiscard]] int free_servers() const { return free_; }
  [[nodiscard]] size_t queue_length() const { return queue_.size(); }
  [[nodiscard]] size_t max_queue_length() const { return max_queue_len_; }
  [[nodiscard]] u64 jobs_submitted() const { return jobs_submitted_; }
  [[nodiscard]] u64 jobs_completed() const { return jobs_completed_; }
  [[nodiscard]] DurNs busy_time() const { return busy_time_; }

 private:
  struct Job {
    DurNs service_time;
    Fn on_done;
  };

  void start(DurNs service_time, Fn on_done) {
    free_--;
    busy_time_ += service_time;
    exec_.schedule_after(service_time, [this, cb = std::move(on_done)]() mutable {
      free_++;
      jobs_completed_++;
      cb();
      if (!queue_.empty() && free_ > 0) {
        Job next = std::move(queue_.front());
        queue_.pop_front();
        start(next.service_time, std::move(next.on_done));
      }
    });
  }

  Executor& exec_;
  std::deque<Job> queue_;
  int free_;
  int servers_;
  size_t max_queue_len_ = 0;
  u64 jobs_submitted_ = 0;
  u64 jobs_completed_ = 0;
  DurNs busy_time_ = 0;
};

/// Serial link: bytes leave the wire in submission order at `bytes_per_sec`.
/// Delivery time for a message is its queueing delay behind earlier traffic
/// plus its own serialization time. Equivalent to a 1-server Resource but
/// tracked with a "link free at" watermark, which is O(1) with no deque.
class Throttle {
 public:
  using Fn = Executor::Fn;  // move-only; jobs may carry linear tokens

  Throttle(Executor& exec, double bytes_per_sec)
      : exec_(exec), bytes_per_sec_(bytes_per_sec) {}

  Throttle(const Throttle&) = delete;
  Throttle& operator=(const Throttle&) = delete;

  /// Transmit `bytes`; `on_delivered` fires when the last byte leaves the
  /// wire. Extra `tail_latency` (e.g. propagation + receiver cost) is added
  /// after serialization without occupying the link.
  void transmit(u64 bytes, DurNs tail_latency, Fn on_delivered) {
    const DurNs serialization =
        static_cast<DurNs>(static_cast<double>(bytes) / bytes_per_sec_ * 1e9);
    const TimeNs now = exec_.now();
    const TimeNs start = std::max(now, free_at_);
    free_at_ = start + serialization;
    bytes_sent_ += bytes;
    busy_time_ += serialization;
    exec_.schedule_after(free_at_ + tail_latency - now, std::move(on_delivered));
  }

  [[nodiscard]] double bytes_per_sec() const { return bytes_per_sec_; }
  [[nodiscard]] u64 bytes_sent() const { return bytes_sent_; }
  [[nodiscard]] DurNs busy_time() const { return busy_time_; }
  [[nodiscard]] TimeNs free_at() const { return free_at_; }

 private:
  Executor& exec_;
  double bytes_per_sec_;
  TimeNs free_at_ = 0;
  u64 bytes_sent_ = 0;
  DurNs busy_time_ = 0;
};

/// Asynchronous mutex: callers queue for exclusive ownership and release it
/// explicitly. FIFO grant order. It serves only the timing plane: it models
/// the spinlock-guarded critical section of Fig 8's "SHM-baseline" inside
/// net::LockedCopier. No engine takes it.
class AsyncMutex {
 public:
  using Fn = Executor::Fn;  // move-only; jobs may carry linear tokens

  explicit AsyncMutex(Executor& exec) : exec_(exec) {}

  AsyncMutex(const AsyncMutex&) = delete;
  AsyncMutex& operator=(const AsyncMutex&) = delete;

  /// Request ownership; `on_granted` runs (possibly immediately via post)
  /// once the lock is held.
  void acquire(Fn on_granted) {
    if (held_) {
      waiters_.push_back(std::move(on_granted));
      contentions_++;
      return;
    }
    held_ = true;
    exec_.post(std::move(on_granted));
  }

  /// Release ownership; the next waiter (if any) is granted.
  void release() {
    if (!waiters_.empty()) {
      Fn next = std::move(waiters_.front());
      waiters_.pop_front();
      exec_.post(std::move(next));
      return;  // ownership transfers directly
    }
    held_ = false;
  }

  [[nodiscard]] bool held() const { return held_; }
  [[nodiscard]] size_t waiters() const { return waiters_.size(); }
  [[nodiscard]] u64 contentions() const { return contentions_; }

 private:
  Executor& exec_;
  std::deque<Fn> waiters_;
  bool held_ = false;
  u64 contentions_ = 0;
};

}  // namespace oaf::sim
