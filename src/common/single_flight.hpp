// Single-flight memo: a map from key to an immutable value that is built
// at most once per key, however many threads ask at once. Held in a
// function-local static, it is a process-wide cache.
//
// The first caller for a key builds it outside the lock; callers that
// arrive while that build is running wait on its shared_future and get
// the same pointer. A build that throws is erased from the map before the
// exception reaches its waiters, so the next call builds afresh (a retry
// never sees a cached failure). There is no eviction: an entry lives as
// long as the memo, so the memo holds one value per distinct key asked.
#pragma once

#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

namespace prestage {

template <typename Key, typename Value>
class SingleFlight {
 public:
  using Ptr = std::shared_ptr<const Value>;

  /// The value for @p key, calling @p build (returning Ptr) only when no
  /// other caller has built or is building it. Rethrows a failed build
  /// to every caller that waited on it.
  template <typename Build>
  Ptr get(const Key& key, Build&& build) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (const auto it = entries_.find(key); it != entries_.end()) {
      const std::shared_future<Ptr> pending = it->second;
      lock.unlock();
      return pending.get();
    }
    std::promise<Ptr> promise;
    entries_.emplace(key, promise.get_future().share());
    lock.unlock();
    try {
      Ptr value = std::forward<Build>(build)();
      promise.set_value(value);
      return value;
    } catch (...) {
      lock.lock();
      entries_.erase(key);
      lock.unlock();
      promise.set_exception(std::current_exception());
      throw;
    }
  }

 private:
  std::mutex mutex_;
  std::map<Key, std::shared_future<Ptr>> entries_;
};

}  // namespace prestage
