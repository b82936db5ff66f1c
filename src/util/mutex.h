#ifndef TREEDIFF_UTIL_MUTEX_H_
#define TREEDIFF_UTIL_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "util/thread_annotations.h"

namespace treediff {

/// The project's lock vocabulary: thin wrappers over the standard library
/// primitives that carry Clang thread-safety capabilities, so every guarded
/// structure in the concurrent subsystems (thread pool, metrics, tree
/// cache, diff service, version store) is checked at compile time instead
/// of probabilistically by TSan. Use `Mutex` + `MutexLock` and annotate the
/// protected members `GUARDED_BY(mu_)`; docs/static-analysis.md has the
/// full conventions.

/// An exclusive lock (std::mutex) visible to the analysis.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// Tells the analysis the caller holds this mutex, where it cannot see
  /// that for itself: in a lambda run synchronously under the caller's
  /// lock (a Retryer::Run op, say). No runtime check — std::mutex has no
  /// owner query.
  void AssertHeld() const ASSERT_CAPABILITY(this) {}

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// A reader/writer lock (std::shared_mutex) visible to the analysis.
/// Writers use Lock/Unlock (or MutexLock is not applicable — use
/// WriterMutexLock); readers use ReaderLock/ReaderUnlock or
/// ReaderMutexLock.
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  void ReaderLock() ACQUIRE_SHARED() { mu_.lock_shared(); }
  void ReaderUnlock() RELEASE_SHARED() { mu_.unlock_shared(); }

 private:
  std::shared_mutex mu_;
};

/// RAII exclusive guard over a Mutex.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// RAII exclusive guard over a SharedMutex (the write side).
class SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex* mu) ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  ~WriterMutexLock() RELEASE() { mu_->Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex* const mu_;
};

/// RAII shared guard over a SharedMutex (the read side).
class SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex* mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_->ReaderLock();
  }
  ~ReaderMutexLock() RELEASE() { mu_->ReaderUnlock(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex* const mu_;
};

/// A condition variable bound to Mutex (the LevelDB port pattern: adopt the
/// already-held std::mutex for the wait, release it back un-owned after).
/// Waiters must hold the mutex — the REQUIRES annotation makes forgetting
/// that a compile error under the analysis, where std::condition_variable
/// with a bare std::unique_lock is invisible to it.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `*mu`, waits, and reacquires it before returning.
  /// As with any condition wait, spurious wakeups happen: call in a loop
  /// that rechecks the predicate.
  void Wait(Mutex* mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  /// Timed Wait: returns after `seconds` elapse or an earlier Signal,
  /// whichever comes first (plus the usual spurious wakeups — recheck the
  /// predicate either way).
  void WaitFor(Mutex* mu, double seconds) REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
    cv_.wait_for(lock, std::chrono::duration<double>(seconds));
    lock.release();
  }

  void Signal() { cv_.notify_one(); }
  void SignalAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace treediff

#endif  // TREEDIFF_UTIL_MUTEX_H_
