#pragma once
// The event loop's cross-thread doorbell (net/server.cpp): an eventfd
// plus a ready-list of connections that completion callbacks hand back
// to the loop thread.  A template over the parked item only so its
// shutdown contract can be tested without a live server
// (tests/test_net.cpp, NetNotifier.*).

#include <sys/eventfd.h>
#include <unistd.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace vlsa::net::detail {

/// Owned by shared_ptr from the loop AND every connection, so a callback
/// firing after the loop thread exited still has a live eventfd.  Since
/// a parked connection holds the notifier that holds it, a connection
/// parked after the loop's last take() would be a shared_ptr cycle, a
/// leak.  So the loop's last take is close_and_take(), and a push()
/// after it drops its item instead of parking it.
template <class Item>
class Notifier {
 public:
  Notifier() : wakefd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
    if (wakefd_ < 0) throw std::runtime_error("net: eventfd failed");
  }
  ~Notifier() { ::close(wakefd_); }

  Notifier(const Notifier&) = delete;
  Notifier& operator=(const Notifier&) = delete;

  /// Park `item` (nullptr: a pure wakeup) and wake the loop; after
  /// close_and_take() drop it instead.  `item` is released after the
  /// lock, so dropping the last reference may destroy this notifier.
  void push(std::shared_ptr<Item> item) {
    bool wake = false;
    {
      util::LockGuard lock(mutex_);
      if (closed_) return;
      ready_.push_back(std::move(item));
      wake = !signaled_;
      signaled_ = true;
    }
    if (wake) {
      const std::uint64_t one = 1;
      // Best-effort: a full eventfd counter still wakes the loop.
      [[maybe_unused]] const auto n = ::write(wakefd_, &one, sizeof(one));
    }
  }

  std::vector<std::shared_ptr<Item>> take() {
    util::LockGuard lock(mutex_);
    signaled_ = false;
    return std::exchange(ready_, {});
  }

  /// The loop's final take: everything parked so far, and no parking
  /// from now on.
  std::vector<std::shared_ptr<Item>> close_and_take() {
    util::LockGuard lock(mutex_);
    closed_ = true;
    return std::exchange(ready_, {});
  }

  [[nodiscard]] int wakefd() const { return wakefd_; }

 private:
  const int wakefd_;
  util::Mutex mutex_;
  std::vector<std::shared_ptr<Item>> ready_ GUARDED_BY(mutex_);
  bool signaled_ GUARDED_BY(mutex_) = false;
  bool closed_ GUARDED_BY(mutex_) = false;
};

}  // namespace vlsa::net::detail
