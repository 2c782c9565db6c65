// Single-producer single-consumer lock-free ring for fixed-size POD records.
//
// No engine uses it (shm payloads are notified over the control channel);
// it is a candidate ring for a shared-memory control plane, exercised by
// its stress tests and the model checker. Classic Lamport queue with
// cached cursors to halve coherence traffic.
//
// Templatized over an atomics policy (common/atomics_policy.h): the default
// StdAtomicsPolicy compiles to exactly the pre-policy code, while
// chk::CheckedPolicy runs the same source under the deterministic model
// checker (tests/chk/spsc_model_test.cpp), where slot payloads go through
// the race detector and the head/tail protocol through the weak-memory
// simulator.
#pragma once

#include <atomic>
#include <cstring>
#include <type_traits>
#include <vector>

#include "common/atomics_policy.h"
#include "common/types.h"
#include "common/units.h"

namespace oaf::shm {

template <typename T, typename Policy = StdAtomicsPolicy>
class SpscQueue {
  static_assert(std::is_trivially_copyable_v<T>,
                "SpscQueue requires trivially copyable records");

  template <typename U>
  using Atomic = typename Policy::template atomic<U>;
  template <typename U>
  using Var = typename Policy::template var<U>;

 public:
  /// Capacity is rounded up to a power of two; usable slots = capacity - 1.
  explicit SpscQueue(u32 capacity_hint = 1024) {
    u64 cap = 2;
    while (cap < capacity_hint) cap <<= 1;
    mask_ = cap - 1;
    buffer_.resize(cap);
  }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  /// Producer: returns false when full.
  bool push(const T& item) {
    const u64 head = head_.load(std::memory_order_relaxed);
    const u64 next = head + 1;
    if (next - cached_tail_ > mask_) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (next - cached_tail_ > mask_) return false;
    }
    buffer_[head & mask_] = item;
    head_.store(next, std::memory_order_release);
    return true;
  }

  /// Consumer: returns false when empty.
  bool pop(T& out) {
    const u64 tail = tail_.load(std::memory_order_relaxed);
    if (tail == cached_head_) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail == cached_head_) return false;
    }
    out = buffer_[tail & mask_];
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  [[nodiscard]] bool empty() const {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

  [[nodiscard]] u64 size_approx() const {
    return head_.load(std::memory_order_acquire) -
           tail_.load(std::memory_order_acquire);
  }

  [[nodiscard]] u64 capacity() const { return mask_; }

 private:
  std::vector<Var<T>> buffer_;
  u64 mask_ = 0;

  alignas(64) Atomic<u64> head_{0};
  alignas(64) u64 cached_tail_ = 0;   // producer-local
  alignas(64) Atomic<u64> tail_{0};
  alignas(64) u64 cached_head_ = 0;   // consumer-local
};

}  // namespace oaf::shm
