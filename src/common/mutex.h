#ifndef TRAC_COMMON_MUTEX_H_
#define TRAC_COMMON_MUTEX_H_

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "common/thread_annotations.h"

namespace trac {

namespace internal {
/// Lock-rank bookkeeping behind the debug lock-order registry (the public
/// face is trac::LockOrderRegistry in storage/invariants.h). Always
/// compiled so link behaviour does not depend on build flags; the mutex
/// wrappers below only *call* it when TRAC_DEBUG_INVARIANTS is defined.
/// Validates that `rank` is strictly greater than every rank this thread
/// already holds, aborting with a diagnostic on inversion, then records
/// the acquisition. Rank 0 (unranked) is exempt from ordering checks.
void LockRankAcquired(int rank, const char* name);
void LockRankReleased(int rank);
/// Number of ranked locks the calling thread currently holds.
int LockRankHeldDepth();
}  // namespace internal

/// The global lock-order table: a mutex may only be acquired while every
/// lock already held by the thread has a strictly smaller rank. Keeping
/// all ranks in one place makes the whole-program acquisition order
/// reviewable at a glance. Rank 0 (kUnranked) opts out of ordering checks
/// (used for leaf mutexes of purely local scope).
namespace lock_rank {
constexpr int kUnranked = 0;
/// Database::write_mu_ — outermost: serializes all mutations.
constexpr int kDatabaseWrite = 10;
/// Catalog::mu_ — name/schema registry.
constexpr int kCatalog = 20;
/// Database::tables_mu_ — TableId -> Table storage registry.
constexpr int kTableRegistry = 30;
/// Table::indexes_mu_ — per-table registry of secondary indexes.
constexpr int kTableIndexes = 40;
/// OrderedIndex::mu_ — innermost storage lock (probes capture under it;
/// the key-order walk runs its lock-free callback under it).
constexpr int kOrderedIndex = 50;
/// ThreadPool::mu_ — task-queue leaf lock; tasks never run under it.
constexpr int kThreadPool = 90;
/// MetricRegistry::mu_ / Tracer::mu_ — telemetry leaf locks: metric
/// lookup and span recording may happen under any storage/core lock, so
/// these must rank after everything they can nest inside.
constexpr int kTelemetry = 95;
}  // namespace lock_rank

#if defined(TRAC_DEBUG_INVARIANTS)
#define TRAC_LOCK_RANK_ACQUIRED_(rank, name) \
  ::trac::internal::LockRankAcquired(rank, name)
#define TRAC_LOCK_RANK_RELEASED_(rank) ::trac::internal::LockRankReleased(rank)
#else
#define TRAC_LOCK_RANK_ACQUIRED_(rank, name) ((void)0)
#define TRAC_LOCK_RANK_RELEASED_(rank) ((void)0)
#endif

/// An annotated std::mutex. Use instead of a raw std::mutex member so
/// Clang's thread-safety analysis sees acquisitions (enforced by
/// trac_lint: no naked standard mutex members outside this header).
/// Optionally ranked: under TRAC_DEBUG_INVARIANTS every Lock() validates
/// the global acquisition order above and aborts on inversion.
class TRAC_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(int rank = lock_rank::kUnranked, const char* name = "mutex")
      : rank_(rank), name_(name) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() TRAC_ACQUIRE() {
    TRAC_LOCK_RANK_ACQUIRED_(rank_, name_);
    mu_.lock();
  }
  void Unlock() TRAC_RELEASE() {
    mu_.unlock();
    TRAC_LOCK_RANK_RELEASED_(rank_);
  }
  bool TryLock() TRAC_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    TRAC_LOCK_RANK_ACQUIRED_(rank_, name_);
    return true;
  }

  /// BasicLockable interface so std::condition_variable_any (via CondVar)
  /// can release/reacquire during a wait. Prefer Lock()/Unlock() (or the
  /// RAII guards) everywhere else.
  void lock() TRAC_ACQUIRE() { Lock(); }
  void unlock() TRAC_RELEASE() { Unlock(); }

  int rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  std::mutex mu_;
  const int rank_;
  const char* const name_;
};

/// An annotated std::shared_mutex (reader/writer lock). Shared
/// acquisitions participate in the same rank order as exclusive ones.
class TRAC_CAPABILITY("shared_mutex") SharedMutex {
 public:
  explicit SharedMutex(int rank = lock_rank::kUnranked,
                       const char* name = "shared_mutex")
      : rank_(rank), name_(name) {}
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() TRAC_ACQUIRE() {
    TRAC_LOCK_RANK_ACQUIRED_(rank_, name_);
    mu_.lock();
  }
  void Unlock() TRAC_RELEASE() {
    mu_.unlock();
    TRAC_LOCK_RANK_RELEASED_(rank_);
  }
  void LockShared() TRAC_ACQUIRE_SHARED() {
    TRAC_LOCK_RANK_ACQUIRED_(rank_, name_);
    mu_.lock_shared();
  }
  void UnlockShared() TRAC_RELEASE_SHARED() {
    mu_.unlock_shared();
    TRAC_LOCK_RANK_RELEASED_(rank_);
  }

  int rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  std::shared_mutex mu_;
  const int rank_;
  const char* const name_;
};

/// RAII guard: exclusive lock on a Mutex for the enclosing scope.
class TRAC_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) TRAC_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() TRAC_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// RAII guard: exclusive (writer) lock on a SharedMutex.
class TRAC_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex* mu) TRAC_ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  ~WriterMutexLock() TRAC_RELEASE() { mu_->Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex* const mu_;
};

/// RAII guard: shared (reader) lock on a SharedMutex.
class TRAC_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(const SharedMutex* mu) TRAC_ACQUIRE_SHARED(mu)
      : mu_(const_cast<SharedMutex*>(mu)) {
    mu_->LockShared();
  }
  ~ReaderMutexLock() TRAC_RELEASE() { mu_->UnlockShared(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex* const mu_;
};

/// Condition variable paired with trac::Mutex. Wait() takes the Mutex
/// directly (annotated TRAC_REQUIRES) so the analysis knows the lock is
/// held across the wait; the mutex is released while blocked and
/// reacquired before returning, so the caller's lockset is unchanged.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) TRAC_REQUIRES(mu) { cv_.wait(mu); }
  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace trac

#endif  // TRAC_COMMON_MUTEX_H_
