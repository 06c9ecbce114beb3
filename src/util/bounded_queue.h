// Bounded multi-producer queue for the serving layer.
//
// Admission control lives at the queue boundary: try_push never blocks
// and never grows the queue past its capacity, so a saturated consumer
// surfaces as an overload rejection at the producer instead of
// unbounded memory growth (see serve/batcher.h for the policy). The
// consumer side drains in FIFO order, which is what keeps per-stream
// processing deterministic.
#pragma once

#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

#include "util/error.h"

namespace emoleak::util {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_{capacity} {
    if (capacity_ == 0) throw ConfigError{"BoundedQueue: capacity == 0"};
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Enqueues unless the queue is full; never blocks.
  [[nodiscard]] bool try_push(T value) {
    std::lock_guard<std::mutex> lock{mutex_};
    if (items_.size() >= capacity_) return false;
    items_.push_back(std::move(value));
    return true;
  }

  /// Moves everything currently queued into `out` (appending) in FIFO
  /// order; returns the number of elements drained.
  std::size_t drain_into(std::vector<T>& out) {
    std::lock_guard<std::mutex> lock{mutex_};
    const std::size_t n = items_.size();
    for (T& item : items_) out.push_back(std::move(item));
    items_.clear();
    return n;
  }

 private:
  std::mutex mutex_;
  std::deque<T> items_;
  std::size_t capacity_;
};

}  // namespace emoleak::util
