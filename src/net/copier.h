// Payload-copy service.
//
// The AF data path performs explicit copies (client buffer -> shm slot,
// shm slot -> target DPDK buffer); the zero-copy design removes the first.
// Protocol engines call Copier instead of memcpy directly so that the
// timing plane can charge copy time against the host's memory bandwidth
// while the functional plane completes immediately. Both planes move the
// real bytes, so data integrity is verifiable everywhere.
#pragma once

#include <cstring>
#include <functional>
#include <memory>
#include <span>

#include "common/executor.h"
#include "common/types.h"
#include "net/fabric_params.h"
#include "sim/resource.h"

namespace oaf::net {

class Copier {
 public:
  using Done = std::function<void()>;

  virtual ~Copier() = default;

  /// Copy src into dst (dst.size() >= src.size()) before returning, so the
  /// caller may reuse src at once; `done` fires when the copy has
  /// "completed" on this plane's clock.
  virtual void copy(std::span<const u8> src, std::span<u8> dst, Done done) = 0;

  /// Charge the cost of a copy of `bytes` without moving data (used when
  /// the bytes were already placed by the application, e.g. zero-copy
  /// publish where only bookkeeping remains).
  virtual void charge(u64 bytes, Done done) = 0;
};

/// Functional plane: memcpy now, complete now.
class InlineCopier final : public Copier {
 public:
  void copy(std::span<const u8> src, std::span<u8> dst, Done done) override {
    std::memcpy(dst.data(), src.data(), src.size());
    done();
  }
  void charge(u64 /*bytes*/, Done done) override { done(); }
};

/// Node-wide memory bandwidth shared by all copy streams on one host. The
/// aggregate cap is part of what bounds NVMe-oAF's peak bandwidth when four
/// streams share one host (paper Fig 11's ~7x over TCP-10G rather than ~30x).
class SimMemoryBus {
 public:
  SimMemoryBus(sim::Scheduler& sched, const ShmFabricParams& params)
      : sched_(sched), params_(params),
        node_bw_(sched, params.node_mem_bytes_per_sec) {}

  [[nodiscard]] sim::Scheduler& scheduler() { return sched_; }
  [[nodiscard]] const ShmFabricParams& params() const { return params_; }
  [[nodiscard]] sim::Throttle& throttle() { return node_bw_; }
  [[nodiscard]] u64 bytes_copied() const { return node_bw_.bytes_sent(); }

 private:
  sim::Scheduler& sched_;
  ShmFabricParams params_;
  sim::Throttle node_bw_;
};

/// Timing plane: memcpy now (data still moves), completion charged against
/// this stream's copy rate and the node-wide memory bus. One SimCopier per
/// connection; all SimCopiers of a host share one SimMemoryBus.
class SimCopier final : public Copier {
 public:
  explicit SimCopier(SimMemoryBus& bus)
      : bus_(bus),
        stream_bw_(bus.scheduler(), bus.params().memcpy_bytes_per_sec) {}

  void copy(std::span<const u8> src, std::span<u8> dst, Done done) override {
    std::memcpy(dst.data(), src.data(), src.size());
    charge(src.size(), std::move(done));
  }

  void charge(u64 bytes, Done done) override {
    // Serialize on the per-stream core first (a single core can only copy
    // so fast), then on the shared node memory bus.
    stream_bw_.transmit(bytes, 0, [this, bytes, done = std::move(done)]() mutable {
      bus_.throttle().transmit(bytes, 0, std::move(done));
    });
  }

 private:
  SimMemoryBus& bus_;
  sim::Throttle stream_bw_;
};

/// Timing plane, Fig 8's SHM-baseline: one staging buffer behind a spinlock
/// that both sides of a connection take, so both sides' decorators share one
/// lock. The bytes move at once; the completion waits for the lock, a kHoldNs
/// hold (acquire plus slot bookkeeping under contention) and the inner
/// copier's charge, all inside the critical section. The cost shows as
/// serialization jitter and tail, not lost bandwidth (paper Fig 8: going
/// lock-free cut p99.99 by ~38% at unchanged bandwidth).
class LockedCopier final : public Copier {
 public:
  static constexpr DurNs kHoldNs = 1'500;

  LockedCopier(std::unique_ptr<Copier> inner,
               std::shared_ptr<sim::AsyncMutex> lock, Executor& exec)
      : inner_(std::move(inner)), lock_(std::move(lock)), exec_(exec) {}

  LockedCopier(const LockedCopier&) = delete;
  LockedCopier& operator=(const LockedCopier&) = delete;

  void copy(std::span<const u8> src, std::span<u8> dst, Done done) override {
    std::memcpy(dst.data(), src.data(), src.size());
    lock_->acquire([this, bytes = src.size(), done = std::move(done)]() mutable {
      exec_.schedule_after(
          kHoldNs, [this, bytes, done = std::move(done)]() mutable {
            inner_->charge(bytes, [this, done = std::move(done)] {
              lock_->release();
              done();
            });
          });
    });
  }

  void charge(u64 bytes, Done done) override {
    inner_->charge(bytes, std::move(done));
  }

 private:
  std::unique_ptr<Copier> inner_;
  std::shared_ptr<sim::AsyncMutex> lock_;
  Executor& exec_;
};

}  // namespace oaf::net
