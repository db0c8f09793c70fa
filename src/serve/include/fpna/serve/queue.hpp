#pragma once
// Bounded MPSC admission queue: a deque behind one mutex.
//
// Producers (submit() callers) append under the lock; a full queue
// *blocks* them (backpressure never drops a request). The single
// consumer (the batcher) moves the whole backlog out under one lock, so
// items leave in global push order. close() sets its flag under the same
// lock push() tests it under: a push that returned true is drainable
// after close, and one that returned false never entered.

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>

namespace fpna::serve {

template <typename T>
class MpscQueue {
 public:
  explicit MpscQueue(std::size_t capacity) : capacity_(capacity) {}

  MpscQueue(const MpscQueue&) = delete;
  MpscQueue& operator=(const MpscQueue&) = delete;

  /// Blocks while the queue is at capacity; returns false (without
  /// having moved from `item` - nothing is ever dropped) iff the queue
  /// was closed before a slot freed up.
  bool push(T&& item) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      not_full_.wait(lock,
                     [this] { return closed_ || items_.size() < capacity_; });
      if (closed_) return false;
      items_.push_back(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Consumer only: appends everything pushed so far to `out` in FIFO
  /// order; if nothing is pending, waits up to `wait` for a push (or
  /// close). Returns the number of items appended.
  std::size_t drain(std::deque<T>& out, std::chrono::nanoseconds wait) {
    std::size_t count = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      not_empty_.wait_for(lock, wait,
                          [this] { return closed_ || !items_.empty(); });
      count = items_.size();
      for (T& item : items_) out.push_back(std::move(item));
      items_.clear();
    }
    if (count > 0) not_full_.notify_all();
    return count;
  }

  /// Wakes blocked producers (their push returns false) and the
  /// consumer; already-admitted items stay drainable.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  /// Admitted, not yet drained.
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace fpna::serve
