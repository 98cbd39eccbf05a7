#pragma once
// Bounded MPMC queue — the submission spine of the arithmetic service.
//
// Any number of producers push requests; any number of dispatcher
// workers pop them *in batches* so one queue transaction amortizes over
// up to `max_batch` requests (256 by default).  The bound is the
// backpressure mechanism: when the queue is full, `push` without `wait`
// takes only what fits and hands the rest back (reject policy, event
// loops), and `push` with `wait` blocks for space (block policy), so
// overload degrades into rejections or producer throttling instead of
// unbounded memory growth.
//
// The queue has exactly one push and one pop, the two the service
// calls, and the pop mirrors the push.  `pop_batch` with `wait` blocks
// for the first item (a dispatcher), without `wait` it never sleeps
// (pump mode); either way it then takes whatever else is queued, up to
// `max`, and returns at once: it never holds a partial batch open.
// Batches still fill under load, because requests queue while the
// dispatcher evaluates the previous batch, and a lone request on an
// idle queue goes straight through.  After `close()`, pushes fail,
// poppers drain whatever remains, and then a waiting `pop_batch`
// returns 0 — the worker-shutdown signal.
//
// The items live in a ring: a vector with a head index and a count.  It
// grows by doubling up to the capacity and never shrinks, pushes
// move-assign into free slots and pops move items out, so a queue that
// has reached its working depth allocates nothing per item.  (A
// std::deque would allocate a node per few requests on the pushing
// thread and free it on the popping one: a third of an allocation per
// request, each freed on another thread.)
//
// The locking discipline is machine-checked: every field behind
// `mutex_` carries GUARDED_BY, so `clang++ -Wthread-safety` (the
// `thread-safety` preset) proves no access escapes the lock.  Waits are
// written as explicit `while (!condition) wait` loops rather than
// predicate lambdas so the analysis sees every guarded read under the
// capability (see util/mutex.hpp).
//
// The synchronization primitives are a policy template parameter:
// production code uses the default `DefaultSync` (util::Mutex et al.,
// zero overhead), while the model-checker tests instantiate
// `BoundedQueue<T, mc::Sync>` so the same `push`, `pop_batch` and
// `close` the service calls run under schedule-injected primitives
// (src/mc/, docs/model_checking.md).

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace vlsa::service {

/// Production sync policy: the util wrappers over std primitives.
struct DefaultSync {
  using Mutex = util::Mutex;
  using LockGuard = util::LockGuard;
  using UniqueLock = util::UniqueLock;
  using CondVar = util::CondVar;
};

template <typename T, typename Sync = DefaultSync>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Moves the leading elements of `items` that fit, in order, and
  /// returns how many it took; the rest stay untouched.  With `wait`
  /// it blocks for space until every item is in or the queue closes,
  /// taking one lock round-trip and at most one wakeup per chunk of
  /// freed capacity — this is what lets producers keep 64-deep batches
  /// ahead of the dispatchers.  Without `wait` it takes what fits under
  /// one lock and returns.  A closed queue takes nothing.
  std::size_t push(std::span<T> items, bool wait) {
    std::size_t pushed = 0;
    while (pushed < items.size()) {
      bool wake = false;
      const std::size_t before = pushed;
      {
        typename Sync::UniqueLock lock(mutex_);
        if (wait) {
          ++waiting_producers_;
          while (!closed_ && count_ >= capacity_) {
            not_full_.wait(lock);
          }
          --waiting_producers_;
        }
        if (closed_) break;
        while (pushed < items.size() && count_ < capacity_) {
          push_locked(std::move(items[pushed]));
          ++pushed;
        }
        wake = pushed > before && waiting_consumers_ > 0;
      }
      // More than one consumer can make progress on a multi-item push;
      // a single item wakes one.
      if (wake) {
        if (pushed - before > 1) {
          not_empty_.notify_all();
        } else {
          not_empty_.notify_one();
        }
      }
      if (!wait) break;
    }
    return pushed;
  }

  /// Appends up to `max` items to `out` and returns how many it took.
  /// With `wait` it blocks until an item is queued or the queue
  /// closes, so it returns 0 only once the queue is closed and empty —
  /// the worker-exit signal.  That is decided under the same lock that
  /// serializes pushes, so no item can slip in between "nothing taken"
  /// and "we are done"; a caller that instead tested `closed()` after
  /// an empty pop could strand an item pushed in between.  Without
  /// `wait` it takes what is queued and never sleeps.
  std::size_t pop_batch(std::vector<T>& out, std::size_t max, bool wait) {
    std::size_t taken = 0;
    bool wake = false;
    {
      typename Sync::UniqueLock lock(mutex_);
      // A pop that does not wait never counts as a waiting consumer,
      // so pushes skip its wakeup.
      if (wait) {
        ++waiting_consumers_;
        while (!closed_ && count_ == 0) {
          not_empty_.wait(lock);
        }
        --waiting_consumers_;
      }
      taken = take_locked(out, max);
      wake = taken > 0 && waiting_producers_ > 0;
    }
    if (wake) not_full_.notify_all();
    return taken;
  }

  /// Fail all future pushes and wake every waiter; queued items remain
  /// poppable so workers drain before exiting.
  void close() {
    {
      typename Sync::LockGuard lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  std::size_t size() const {
    typename Sync::LockGuard lock(mutex_);
    return count_;
  }

  bool closed() const {
    typename Sync::LockGuard lock(mutex_);
    return closed_;
  }

 private:
  /// Moves `item` into the ring's next free slot.  A full ring first
  /// doubles (starting at 16 slots, never past the capacity) and moves
  /// its items to the front of the new one, oldest first.
  void push_locked(T&& item) REQUIRES(mutex_) {
    if (count_ == ring_.size()) {
      std::vector<T> grown(
          std::min(capacity_, std::max<std::size_t>(16, 2 * count_)));
      for (std::size_t i = 0; i < count_; ++i) {
        grown[i] = std::move(ring_[wrap(head_ + i)]);
      }
      ring_.swap(grown);
      head_ = 0;
    }
    ring_[wrap(head_ + count_)] = std::move(item);
    ++count_;
  }

  std::size_t take_locked(std::vector<T>& out, std::size_t max)
      REQUIRES(mutex_) {
    std::size_t taken = 0;
    while (taken < max && count_ > 0) {
      out.push_back(std::move(ring_[head_]));
      head_ = wrap(head_ + 1);
      --count_;
      ++taken;
    }
    return taken;
  }

  /// An index below 2 * ring_.size(), folded into the ring.
  std::size_t wrap(std::size_t index) const REQUIRES(mutex_) {
    return index >= ring_.size() ? index - ring_.size() : index;
  }

  mutable typename Sync::Mutex mutex_;
  typename Sync::CondVar not_empty_;
  typename Sync::CondVar not_full_;
  std::vector<T> ring_ GUARDED_BY(mutex_);
  std::size_t head_ GUARDED_BY(mutex_) = 0;   ///< oldest item's slot
  std::size_t count_ GUARDED_BY(mutex_) = 0;  ///< items queued
  const std::size_t capacity_;
  bool closed_ GUARDED_BY(mutex_) = false;
  // Waiter counts make notifies precise: a push into a queue nobody is
  // sleeping on costs zero futex traffic.
  std::size_t waiting_consumers_ GUARDED_BY(mutex_) = 0;
  std::size_t waiting_producers_ GUARDED_BY(mutex_) = 0;
};

}  // namespace vlsa::service
