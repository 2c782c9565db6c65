#include "af/buffer_manager.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <new>

namespace oaf::af {

namespace {

/// log2 of the power-of-two storage that holds `len` bytes; 64 B at least,
/// so a free block always has room for the link to the next one.
u32 size_class(u64 len) {
  const auto cls = static_cast<u32>(std::bit_width(len == 0 ? 0 : len - 1));
  return std::max(cls, 6U);
}

/// A free block keeps the link to the next one in its first bytes, so
/// releasing never allocates.
u8* next_free(const u8* block) {
  u8* next = nullptr;
  std::memcpy(&next, block, sizeof next);
  return next;
}

}  // namespace

StagingBuffer& StagingBuffer::operator=(StagingBuffer&& other) noexcept {
  if (this != &other) {
    reset();
    pool_ = std::exchange(other.pool_, nullptr);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

void StagingBuffer::reset() {
  if (pool_ != nullptr) pool_->release(data_, size_);
  pool_ = nullptr;
  data_ = nullptr;
  size_ = 0;
}

StagingPool::StagingPool(std::string name, u64 capacity, StagingPool* parent)
    : name_(std::move(name)),
      capacity_(capacity),
      parent_(parent),
      root_(parent != nullptr ? parent->root_ : this) {}

StagingPool::~StagingPool() {
  assert(in_use_ == 0 && "a staging buffer outlived its pool");
  for (u8* p : free_) {
    while (p != nullptr) {
      u8* const block = p;
      p = next_free(block);
      ::operator delete(block);
    }
  }
}

Result<StagingBuffer> StagingPool::acquire(u64 len) {
  for (StagingPool* p = this; p != nullptr; p = p->parent_) {
    if (p->capacity_ != 0 && p->in_use_ + len > p->capacity_) {
      p->denied_++;
      return make_error(StatusCode::kResourceExhausted, p->name_);
    }
  }
  for (StagingPool* p = this; p != nullptr; p = p->parent_) {
    p->in_use_ += len;
    p->peak_ = std::max(p->peak_, p->in_use_);
  }
  const u32 cls = size_class(len);
  u8*& head = root_->free_[cls];
  u8* data = head;
  if (data != nullptr) {
    head = next_free(data);
  } else {
    data = static_cast<u8*>(::operator new(u64{1} << cls));
  }
  std::memset(data, 0, len);
  return StagingBuffer(this, data, len);
}

void StagingPool::release(u8* data, u64 len) {
  for (StagingPool* p = this; p != nullptr; p = p->parent_) {
    assert(p->in_use_ >= len);
    p->in_use_ -= len;
  }
  u8*& head = root_->free_[size_class(len)];
  std::memcpy(data, &head, sizeof head);
  head = data;
}

}  // namespace oaf::af
