// Buffer Manager (paper §4.1, §4.4.3): the target's staging pool.
//
// A StagingPool bounds the target's DMA-able staging bytes and provides them:
// acquire() charges the pool and every ancestor (a connection's pool, then
// the service's) or nothing, and hands out zeroed bytes in a move-only
// StagingBuffer that returns bytes and charge together when destroyed, so a
// charge is released exactly once by construction (DESIGN.md §12). The root
// pool recycles storage on one LIFO free list per power-of-two size class.
//
// Not thread-safe: a tree of pools lives on one reactor. A pool must outlive
// its buffers and its children.
#pragma once

#include <array>
#include <span>
#include <string>
#include <utility>

#include "common/status.h"
#include "common/types.h"

namespace oaf::af {

class StagingPool;

/// `size()` zeroed bytes charged to the pool that handed them out. Empty
/// (no bytes, no charge) when default-constructed, moved from or reset.
class StagingBuffer {
 public:
  StagingBuffer() = default;
  StagingBuffer(StagingBuffer&& other) noexcept { *this = std::move(other); }
  StagingBuffer& operator=(StagingBuffer&& other) noexcept;
  ~StagingBuffer() { reset(); }

  /// Give the bytes and the charge back; the buffer is empty afterwards.
  void reset();

  [[nodiscard]] u8* data() const { return data_; }
  [[nodiscard]] u64 size() const { return size_; }
  [[nodiscard]] std::span<u8> span() const { return {data_, size_}; }

 private:
  friend class StagingPool;
  StagingBuffer(StagingPool* pool, u8* data, u64 size)
      : pool_(pool), data_(data), size_(size) {}

  StagingPool* pool_ = nullptr;
  u8* data_ = nullptr;
  u64 size_ = 0;
};

class StagingPool {
 public:
  /// `name` labels refusals; `capacity` bounds the bytes charged here at
  /// once (0 = unlimited); `parent`, when set, is charged too.
  StagingPool(std::string name, u64 capacity, StagingPool* parent = nullptr);
  ~StagingPool();
  StagingPool(const StagingPool&) = delete;
  StagingPool& operator=(const StagingPool&) = delete;

  /// `len` zeroed bytes charged to this pool and every ancestor, or a
  /// retryable kResourceExhausted naming the first pool that would overflow
  /// (only that pool counts the denial, and nothing is charged).
  [[nodiscard]] Result<StagingBuffer> acquire(u64 len);

  [[nodiscard]] u64 capacity() const { return capacity_; }
  [[nodiscard]] u64 in_use() const { return in_use_; }
  [[nodiscard]] u64 peak() const { return peak_; }
  [[nodiscard]] u64 denied() const { return denied_; }
  /// True when usage sits at or above `frac` of capacity (watermark test).
  [[nodiscard]] bool above(double frac) const {
    return capacity_ != 0 && static_cast<double>(in_use_) /
                                     static_cast<double>(capacity_) >=
                                 frac;
  }

 private:
  friend class StagingBuffer;
  /// Return `len` bytes of charge up the chain and `data` to the root.
  void release(u8* data, u64 len);

  std::string name_;
  u64 capacity_;
  StagingPool* parent_;
  StagingPool* root_;
  u64 in_use_ = 0;
  u64 peak_ = 0;
  u64 denied_ = 0;
  /// Root only: heads of the free lists, indexed by log2 of block size.
  std::array<u8*, 64> free_{};
};

}  // namespace oaf::af
