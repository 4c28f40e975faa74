// Fixed-capacity FIFO ring buffer.
//
// Hardware queues in the model (FTQ, CLTQ, decode pipe, prefetch request
// queue) are bounded by construction; RingBuffer makes the bound explicit
// and keeps queue operations allocation-free on the simulation fast path.
// The backing store is rounded up to a power of two internally so every
// wrap is a mask instead of a modulo; capacity() still reports (and
// full() still enforces) the requested hardware bound.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/prestage_assert.hpp"
#include "common/types.hpp"

namespace prestage {

template <typename T>
class RingBuffer {
 public:
  /// Creates a buffer holding at most @p capacity elements.
  explicit RingBuffer(std::size_t capacity)
      : slots_(round_up_pow2(capacity > 0 ? capacity : 1)),
        capacity_(capacity),
        mask_(slots_.size() - 1) {
    PRESTAGE_ASSERT(capacity > 0, "ring buffer capacity must be positive");
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] bool full() const noexcept { return size_ == capacity_; }

  /// Appends to the tail. Precondition: !full().
  void push(T value) {
    PRESTAGE_ASSERT(!full(), "push on full ring buffer");
    slots_[(head_ + size_) & mask_] = std::move(value);
    ++size_;
  }

  /// Appends a value-initialised element at the tail and returns it, so
  /// the caller fills it in place instead of building a temporary and
  /// copying it in. A reused slot holds nothing of its last occupant.
  /// Precondition: !full().
  T& emplace_back() {
    PRESTAGE_ASSERT(!full(), "push on full ring buffer");
    T& slot = slots_[(head_ + size_) & mask_];
    slot = T{};
    ++size_;
    return slot;
  }

  /// Removes and returns the head. Precondition: !empty().
  T pop() {
    PRESTAGE_ASSERT(!empty(), "pop on empty ring buffer");
    T value = std::move(slots_[head_]);
    pop_front();
    return value;
  }

  /// Discards the head without moving it out. Precondition: !empty().
  void pop_front() {
    PRESTAGE_ASSERT(!empty(), "pop on empty ring buffer");
    head_ = (head_ + 1) & mask_;
    --size_;
  }

  /// Head element (next to pop). Precondition: !empty().
  [[nodiscard]] T& front() {
    PRESTAGE_ASSERT(!empty());
    return slots_[head_];
  }
  [[nodiscard]] const T& front() const {
    PRESTAGE_ASSERT(!empty());
    return slots_[head_];
  }

  /// Tail element (most recently pushed). Precondition: !empty().
  [[nodiscard]] T& back() {
    PRESTAGE_ASSERT(!empty());
    return slots_[(head_ + size_ - 1) & mask_];
  }

  /// Element @p i positions behind the head (0 == front()).
  [[nodiscard]] T& at(std::size_t i) {
    PRESTAGE_ASSERT(i < size_, "ring buffer index out of range");
    return slots_[(head_ + i) & mask_];
  }
  [[nodiscard]] const T& at(std::size_t i) const {
    PRESTAGE_ASSERT(i < size_, "ring buffer index out of range");
    return slots_[(head_ + i) & mask_];
  }

  /// Discards all contents (a pipeline flush).
  void clear() noexcept {
    head_ = 0;
    size_ = 0;
  }

  /// Drops the newest @p n elements (partial squash after a mispredict
  /// discovered mid-queue). Precondition: n <= size().
  void pop_back_n(std::size_t n) {
    PRESTAGE_ASSERT(n <= size_);
    size_ -= n;
  }

 private:
  std::vector<T> slots_;
  std::size_t capacity_;
  std::size_t mask_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

/// Unbounded FIFO over a power-of-two ring that doubles when full.
//
// For software-side windows with no hardware bound (the oracle's
// committed-instruction window), where std::deque's chunked node
// allocation put steady-state heap traffic on the fast path. Growth
// reallocates (amortized, stops at the high-water mark); all other
// operations are mask arithmetic on contiguous storage.
template <typename T>
class GrowableRingBuffer {
 public:
  explicit GrowableRingBuffer(std::size_t initial_capacity = 16)
      : slots_(round_up_pow2(initial_capacity > 0 ? initial_capacity : 1)) {}

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  void push_back(T value) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & mask()] = std::move(value);
    ++size_;
  }

  void pop_front() {
    PRESTAGE_ASSERT(size_ > 0, "pop_front on empty ring");
    head_ = (head_ + 1) & mask();
    --size_;
  }

  /// Element @p i positions behind the head (0 == oldest).
  [[nodiscard]] T& operator[](std::size_t i) {
    PRESTAGE_ASSERT(i < size_, "ring index out of range");
    return slots_[(head_ + i) & mask()];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    PRESTAGE_ASSERT(i < size_, "ring index out of range");
    return slots_[(head_ + i) & mask()];
  }

  void clear() noexcept {
    head_ = 0;
    size_ = 0;
  }

 private:
  [[nodiscard]] std::size_t mask() const noexcept {
    return slots_.size() - 1;
  }

  void grow() {
    std::vector<T> bigger(slots_.size() * 2);
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i] = std::move(slots_[(head_ + i) & mask()]);
    }
    slots_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace prestage
