// spsc_ring.hpp — bounded lock-free single-producer/single-consumer
// ring buffer.
//
// The producer (an executive emitting trace slots) and the consumer
// (the monitor drain thread) each own one index; the only shared state
// is two atomics, so a push or pop is wait-free: one relaxed load of
// the own index, one acquire load of the remote index (amortized away
// by caching), the element copy, and one release store. Capacity is
// rounded up to a power of two so wrap-around is a mask, not a modulo.
#pragma once

#include <atomic>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

namespace rtg::util {

// Fixed rather than std::hardware_destructive_interference_size, whose
// value may differ between compilers and flags (GCC warns about using
// it in a header for that reason); 64 bytes is the x86-64 line.
inline constexpr std::size_t kCacheLine = 64;

template <typename T>
class SpscRing {
 public:
  /// Rounds `min_capacity` (>= 1) up to a power of two.
  explicit SpscRing(std::size_t min_capacity) {
    if (min_capacity == 0) {
      throw std::invalid_argument("SpscRing: capacity must be >= 1");
    }
    std::size_t cap = 1;
    while (cap < min_capacity) cap <<= 1;
    buf_.resize(cap);
    mask_ = cap - 1;
  }

  [[nodiscard]] std::size_t capacity() const { return buf_.size(); }

  /// Producer side. Returns false (and drops nothing) when full.
  bool try_push(const T& value) {
    const std::size_t tail = tail_.pos.load(std::memory_order_relaxed);
    if (tail - head_cache_ > mask_) {
      head_cache_ = head_.pos.load(std::memory_order_acquire);
      if (tail - head_cache_ > mask_) return false;
    }
    buf_[tail & mask_] = value;
    tail_.pos.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side: pops up to out.size() elements, returns the count.
  std::size_t pop_batch(std::span<T> out) {
    const std::size_t head = head_.pos.load(std::memory_order_relaxed);
    std::size_t available = tail_cache_ - head;
    if (available == 0) {
      tail_cache_ = tail_.pos.load(std::memory_order_acquire);
      available = tail_cache_ - head;
      if (available == 0) return 0;
    }
    const std::size_t n = available < out.size() ? available : out.size();
    for (std::size_t i = 0; i < n; ++i) out[i] = buf_[(head + i) & mask_];
    head_.pos.store(head + n, std::memory_order_release);
    return n;
  }

  /// Consumer-side emptiness probe (exact for the consumer thread).
  [[nodiscard]] bool empty() const {
    return head_.pos.load(std::memory_order_acquire) ==
           tail_.pos.load(std::memory_order_acquire);
  }

 private:
  struct alignas(kCacheLine) Index {
    std::atomic<std::size_t> pos{0};
  };

  std::vector<T> buf_;
  std::size_t mask_ = 0;
  Index head_;  ///< consumer-owned
  Index tail_;  ///< producer-owned
  // Single-thread-owned caches of the remote index, refreshed only when
  // the cached value would block the operation.
  alignas(kCacheLine) std::size_t head_cache_ = 0;  ///< producer's view of head
  alignas(kCacheLine) std::size_t tail_cache_ = 0;  ///< consumer's view of tail
};

}  // namespace rtg::util
