// CAS-based spin locks and the paper's lock idioms:
//   - Spinlock: busy-wait lock built on compare_exchange (paper §3.5);
//   - SpinGuard: RAII scope over a Spinlock (scoped capability);
//   - lock_if:  conditional lock, Algorithm 4 — acquires only while a
//     predicate holds and never blocks on a lock whose condition failed;
//   - lock_pair: acquires two locks "together" with no hold-and-wait, so
//     the initial endpoint locking of Algorithms 7/8 cannot deadlock.
//
// Everything here is capability-annotated (sync/annotations.h) so the
// discipline these comments describe is machine-checked under
// `clang -Wthread-safety`; see docs/STATIC_ANALYSIS.md.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>

#include "sync/annotations.h"
#include "sync/backoff.h"
#include "sync/mutex.h"  // AdoptLock tag, shared with MutexGuard

namespace parcore {

class PARCORE_CAPABILITY("spinlock") Spinlock {
 public:
  Spinlock() = default;
  Spinlock(const Spinlock&) = delete;
  Spinlock& operator=(const Spinlock&) = delete;

  bool try_lock() PARCORE_TRY_ACQUIRE(true) { return try_lock_impl(); }

  void lock() PARCORE_ACQUIRE() {
    Backoff backoff;
    while (!try_lock_impl()) backoff.pause();
  }

  void unlock() PARCORE_RELEASE() {
    // Releasing a lock nobody holds is always a discipline bug (e.g. a
    // double-unlock on a conditional keep/release path).
    assert(flag_.load(std::memory_order_relaxed) != 0 &&
           "Spinlock::unlock() of an unheld lock");
    flag_.store(0, std::memory_order_release);
  }

  bool is_locked() const {
    return flag_.load(std::memory_order_relaxed) != 0;
  }

 private:
  // The raw acquisition, deliberately unannotated: lock()'s retry loop
  // calls it without confusing the analysis' lock-set join.
  bool try_lock_impl() {
    // Cheap relaxed load first: avoids cache-line ping-pong under
    // contention (test-and-test-and-set).
    if (flag_.load(std::memory_order_relaxed) != 0) return false;
    std::uint32_t expected = 0;
    return flag_.compare_exchange_strong(expected, 1,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed);
  }

  std::atomic<std::uint32_t> flag_{0};
};

/// RAII scope over a Spinlock: the std::lock_guard shape the annotation
/// sweep converts bare lock()/unlock() pairs to. The adopt form serves
/// the try-lock idiom:
///
///   if (mu_.try_lock()) {
///     SpinGuard g(mu_, kAdoptLock);
///     ...
///   }
class PARCORE_SCOPED_CAPABILITY SpinGuard {
 public:
  explicit SpinGuard(Spinlock& lock) PARCORE_ACQUIRE(lock) : lock_(lock) {
    lock_.lock();
  }
  /// Adopts a capability the caller already holds (e.g. via try_lock).
  SpinGuard(Spinlock& lock, AdoptLock) PARCORE_REQUIRES(lock) : lock_(lock) {}
  ~SpinGuard() PARCORE_RELEASE() { lock_.unlock(); }

  SpinGuard(const SpinGuard&) = delete;
  SpinGuard& operator=(const SpinGuard&) = delete;

 private:
  Spinlock& lock_;
};

/// Algorithm 4: Lock(x) with condition c. Busy-waits while c holds and
/// the lock is taken; returns false as soon as c is observed false
/// (either before acquiring or right after — in which case the lock is
/// released again). Returns true with the lock held and c true — the
/// TRY_ACQUIRE contract: callers own `lock` exactly when this returned
/// true, and the analysis checks their release paths against that.
template <typename Cond>
bool lock_if(Spinlock& lock, Cond&& cond) PARCORE_TRY_ACQUIRE(true, lock) {
  Backoff backoff;
  while (cond()) {
    if (lock.try_lock()) {
      if (cond()) return true;
      lock.unlock();
      return false;
    }
    backoff.pause();
  }
  return false;
}

/// Acquires both locks with no hold-and-wait: holds `a` only while
/// *try*-locking `b`, releasing `a` on failure. Waiting happens with no
/// lock held, so this step can never participate in a deadlock cycle
/// (paper §4.1.2 "lock u and v together at the same time"). Annotated
/// ACQUIRE(a, b): on return the caller holds both.
inline void lock_pair(Spinlock& a, Spinlock& b) PARCORE_ACQUIRE(a, b) {
  Backoff backoff;
  for (;;) {
    a.lock();
    if (b.try_lock()) return;
    a.unlock();
    backoff.pause();
  }
}

}  // namespace parcore
