#pragma once

#include <mutex>
#include <shared_mutex>

#include "core/thread_annotations.h"

namespace sidq {

// Annotated synchronization wrappers -- the only place in the tree allowed
// to name the raw std primitives (sidq-lint rule R10). Everything else
// takes locks through these types so that Clang Thread Safety Analysis can
// check, at compile time, that every SIDQ_GUARDED_BY field is touched only
// under its lock (DESIGN.md "Concurrency & locking discipline").
//
// The wrappers are zero-cost veneers: Mutex is exactly std::mutex,
// MutexLock is exactly std::lock_guard, and on non-Clang compilers the
// annotations vanish entirely -- locking behavior, layout, and codegen are
// unchanged, which keeps the determinism contract's byte-identical outputs
// byte-identical.

// Exclusive capability over std::mutex.
class SIDQ_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() SIDQ_ACQUIRE() { mu_.lock(); }
  void Unlock() SIDQ_RELEASE() { mu_.unlock(); }
  [[nodiscard]] bool TryLock() SIDQ_TRY_ACQUIRE(true) {
    return mu_.try_lock();
  }

 private:
  std::mutex mu_;
};

// Reader/writer capability over std::shared_mutex. Exclusive (writer)
// acquisition uses Lock/Unlock; shared (reader) acquisition uses
// LockShared/UnlockShared. A SIDQ_GUARDED_BY field may be *read* under
// either mode but *written* only under exclusive -- the analysis enforces
// the distinction.
class SIDQ_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() SIDQ_ACQUIRE() { mu_.lock(); }
  void Unlock() SIDQ_RELEASE() { mu_.unlock(); }
  void LockShared() SIDQ_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void UnlockShared() SIDQ_RELEASE_SHARED() { mu_.unlock_shared(); }

 private:
  std::shared_mutex mu_;
};

// Scoped exclusive lock (the std::lock_guard idiom). Non-movable: a lock's
// lifetime IS its critical section, and the analysis leans on that.
class SIDQ_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) SIDQ_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() SIDQ_RELEASE() { mu_.Unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// Scoped exclusive (writer) lock on a SharedMutex.
class SIDQ_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) SIDQ_ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~WriterMutexLock() SIDQ_RELEASE() { mu_.Unlock(); }
  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

// Scoped shared (reader) lock on a SharedMutex.
class SIDQ_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) SIDQ_ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_.LockShared();
  }
  ~ReaderMutexLock() SIDQ_RELEASE() { mu_.UnlockShared(); }
  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

}  // namespace sidq
