// A power-of-two ring buffer for the packet path's POD payloads.
//
// The network layer keeps every queued, in-service, and in-flight packet in
// one of these instead of a std::deque: contiguous storage, index-mask
// addressing, and no per-node allocation. A ring is either pre-sized from a
// capacity hint (a queue sizes its rings from its buffer, round_up_pow2) or,
// with no hint, allocated by its first push (the per-flow delay pipes, most
// of which never carry a packet in a large churn pool). Either way it grows
// geometrically when full, using the one `count == capacity` check the push
// already makes, so once a ring has reached its peak population the steady
// state performs zero heap allocations.
//
// The ring is 24 bytes: one owning pointer plus 32-bit head, count and
// capacity. Every dumbbell flow embeds two of them (its tail and reverse
// pipes), so the header, not the storage, is what a million-slot pool pays
// for the pipes that never carry a packet.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>

namespace ebrc::util {

/// Smallest power of two >= n (and >= 2).
[[nodiscard]] constexpr std::size_t round_up_pow2(std::size_t n) noexcept {
  std::size_t p = 2;
  while (p < n) p <<= 1;
  return p;
}

template <typename T>
class RingBuffer {
  static_assert(std::is_nothrow_move_constructible_v<T> || std::is_copy_assignable_v<T>,
                "RingBuffer payloads must relocate cheaply");

 public:
  /// `capacity_hint` pre-sizes the ring (rounded up to a power of two);
  /// 0 defers allocation to the first push.
  explicit RingBuffer(std::size_t capacity_hint = 0) {
    if (capacity_hint > 0) reallocate(round_up_pow2(capacity_hint));
  }

  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }

  void push_back(const T& v) {
    if (count_ == cap_) reallocate(cap_ == 0 ? kMinCapacity : std::size_t{cap_} * 2);
    buf_[(head_ + count_) & mask()] = v;
    ++count_;
  }

  [[nodiscard]] T& front() noexcept {
    assert(count_ > 0);
    return buf_[head_];
  }
  [[nodiscard]] const T& front() const noexcept {
    assert(count_ > 0);
    return buf_[head_];
  }

  /// Element `i` positions behind the front (0 = front). i < size().
  [[nodiscard]] T& at_offset(std::size_t i) noexcept {
    assert(i < count_);
    return buf_[(head_ + i) & mask()];
  }
  [[nodiscard]] const T& at_offset(std::size_t i) const noexcept {
    assert(i < count_);
    return buf_[(head_ + i) & mask()];
  }

  void pop_front() noexcept {
    assert(count_ > 0);
    head_ = (head_ + 1) & mask();
    --count_;
  }

  void clear() noexcept {
    head_ = 0;
    count_ = 0;
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;

  /// Index mask; capacity is a power of two whenever storage exists.
  [[nodiscard]] std::uint32_t mask() const noexcept { return cap_ - 1; }

  void reallocate(std::size_t new_capacity) {
    assert(new_capacity <= (std::size_t{1} << 31) && "ring capacity outgrew 32-bit indexes");
    auto next = std::make_unique<T[]>(new_capacity);  // value-initialised, like vector(n)
    for (std::uint32_t i = 0; i < count_; ++i) next[i] = buf_[(head_ + i) & mask()];
    buf_ = std::move(next);
    head_ = 0;
    cap_ = static_cast<std::uint32_t>(new_capacity);
  }

  std::unique_ptr<T[]> buf_;
  std::uint32_t head_ = 0;
  std::uint32_t count_ = 0;
  std::uint32_t cap_ = 0;
};
static_assert(sizeof(RingBuffer<double>) == 24, "RingBuffer header grew past three words");

}  // namespace ebrc::util
