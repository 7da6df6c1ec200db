// Clang thread-safety annotations, compiled away everywhere else.
//
// The PPG_* macros expand to Clang's `__attribute__((guarded_by(...)))`
// family when the compiler supports them, so `-Wthread-safety` (wired into
// ppg_options and scripts/static.sh on clang builds) statically checks that
// every access to an annotated field holds the declared mutex. Under GCC
// they expand to nothing — the annotations are pure documentation there, and
// ppg_analyze's guard-annotation rule keeps them present either way.
//
// Lock discipline in this codebase comes in three honest flavors, and the
// macros distinguish them instead of pretending everything is a mutex:
//
//   PPG_GUARDED_BY(m)         field is only touched while `m` is held
//                             (checkable by clang).
//   PPG_SHARDED_BY(...)       field is written at disjoint indices by
//                             parallel_for_index workers (sweep cells) and
//                             published by its join; there is no lock to
//                             name, so this is documentation-only on every
//                             compiler.
//   PPG_CALLER_SYNCHRONIZED(...)  field is owned by a single external
//                             driver thread (e.g. PagingService's driver);
//                             documentation-only on every compiler.
#pragma once

#include <mutex>

#if defined(__clang__) && !defined(SWIG)
#define PPG_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define PPG_THREAD_ANNOTATION(x)  // no-op outside clang
#endif

#define PPG_CAPABILITY(x) PPG_THREAD_ANNOTATION(capability(x))
#define PPG_SCOPED_CAPABILITY PPG_THREAD_ANNOTATION(scoped_lockable)
#define PPG_GUARDED_BY(x) PPG_THREAD_ANNOTATION(guarded_by(x))
#define PPG_PT_GUARDED_BY(x) PPG_THREAD_ANNOTATION(pt_guarded_by(x))
#define PPG_REQUIRES(...) \
  PPG_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define PPG_ACQUIRE(...) PPG_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define PPG_RELEASE(...) PPG_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define PPG_TRY_ACQUIRE(...) \
  PPG_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define PPG_EXCLUDES(...) PPG_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define PPG_ASSERT_CAPABILITY(x) PPG_THREAD_ANNOTATION(assert_capability(x))
#define PPG_RETURN_CAPABILITY(x) PPG_THREAD_ANNOTATION(lock_returned(x))
#define PPG_NO_THREAD_SAFETY_ANALYSIS \
  PPG_THREAD_ANNOTATION(no_thread_safety_analysis)

// Documentation-only synchronization claims (every compiler): see the table
// above. Arguments are free-form prose naming the partition index or owner.
#define PPG_SHARDED_BY(...)
#define PPG_CALLER_SYNCHRONIZED(...)

namespace ppg {

/// std::mutex with the capability attribute clang's analysis needs
/// (libstdc++'s std::mutex carries no annotations, so guarded_by(a
/// std::mutex member) would be unanalyzable). Satisfies BasicLockable, so
/// std::condition_variable_any can wait on it directly.
class PPG_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() PPG_ACQUIRE() { mutex_.lock(); }
  void unlock() PPG_RELEASE() { mutex_.unlock(); }
  bool try_lock() PPG_TRY_ACQUIRE(true) { return mutex_.try_lock(); }

 private:
  std::mutex mutex_;
};

/// Scoped lock over ppg::Mutex, annotated so clang tracks the critical
/// section (std::scoped_lock/std::unique_lock are opaque to the analysis).
class PPG_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) PPG_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~MutexLock() PPG_RELEASE() { mutex_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

}  // namespace ppg
