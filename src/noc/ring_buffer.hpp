// FIFO ring buffer for the link flit/credit queues. Capacities are known up
// front (link_latency + 1 flits), so after construction the steady state
// performs no allocation at all — unlike std::deque, whose chunked storage
// costs both allocations and cache misses on the per-cycle push/pop pattern.
//
// Growth is still supported (doubling): a decommission or purge can return
// a burst of credits on one link in a single cycle. The API is the
// std::deque subset (front / push_back / pop_front / size / empty / clear).
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

#include "common/types.hpp"

namespace rnoc::noc {

template <typename T>
class RingBuffer {
 public:
  RingBuffer() = default;
  explicit RingBuffer(std::size_t capacity) { reserve(capacity); }

  // Moves leave the source empty (but valid) so call sites may keep using it.
  RingBuffer(RingBuffer&& o) noexcept
      : buf_(std::move(o.buf_)),
        cap_(std::exchange(o.cap_, 0)),
        mask_(std::exchange(o.mask_, 0)),
        head_(std::exchange(o.head_, 0)),
        count_(std::exchange(o.count_, 0)) {}
  RingBuffer& operator=(RingBuffer&& o) noexcept {
    if (this != &o) {
      buf_ = std::move(o.buf_);
      cap_ = std::exchange(o.cap_, 0);
      mask_ = std::exchange(o.mask_, 0);
      head_ = std::exchange(o.head_, 0);
      count_ = std::exchange(o.count_, 0);
    }
    return *this;
  }

  RingBuffer(const RingBuffer& o) { *this = o; }
  RingBuffer& operator=(const RingBuffer& o) {
    if (this == &o) return *this;
    clear();
    reserve(o.cap_);
    for (std::size_t i = 0; i < o.count_; ++i) push_back(o.at(i));
    return *this;
  }

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }
  std::size_t capacity() const { return cap_; }

  /// Ensures room for at least `capacity` elements (rounded up to a power of
  /// two for mask indexing). Never shrinks; preserves contents.
  void reserve(std::size_t capacity) {
    if (capacity <= cap_) return;
    std::size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    auto grown = std::make_unique<T[]>(cap);
    for (std::size_t i = 0; i < count_; ++i) grown[i] = std::move(at(i));
    buf_ = std::move(grown);
    cap_ = cap;
    mask_ = cap - 1;
    head_ = 0;
  }

  T& front() {
    require(count_ > 0, "RingBuffer::front: empty");
    return buf_[head_];
  }
  const T& front() const {
    require(count_ > 0, "RingBuffer::front: empty");
    return buf_[head_];
  }

  void push_back(const T& v) {
    if (count_ == cap_) reserve(cap_ == 0 ? 4 : cap_ * 2);
    buf_[(head_ + count_) & mask_] = v;
    ++count_;
  }

  void pop_front() {
    require(count_ > 0, "RingBuffer::pop_front: empty");
    // Drop payload references eagerly; plain data is simply overwritten by
    // a later push, so its slot stays readable until then.
    if constexpr (!std::is_trivially_copyable_v<T>) buf_[head_] = T{};
    head_ = (head_ + 1) & mask_;
    --count_;
  }

  void clear() {
    while (count_ > 0) pop_front();
  }

  /// Element `i` positions behind the front (0 == front). Read-only access
  /// for introspection (invariant checking); FIFO mutation stays
  /// push_back/pop_front only.
  const T& at(std::size_t i) const {
    require(i < count_, "RingBuffer::at: index out of range");
    return buf_[(head_ + i) & mask_];
  }

 private:
  T& at(std::size_t i) { return buf_[(head_ + i) & mask_]; }

  std::unique_ptr<T[]> buf_;
  std::size_t cap_ = 0;
  std::size_t mask_ = 0;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace rnoc::noc
