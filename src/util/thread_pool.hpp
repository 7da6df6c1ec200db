// Fixed-size thread pool and a deterministic parallel-for built on it.
//
// The sweep harness (bench_support/parallel_sweep.hpp) runs independent
// experiment cells concurrently. Determinism is the contract that makes
// that safe to expose as a --jobs flag: parallel_for_index(jobs, n, fn)
// calls fn(i) exactly once for every i in [0, n), each i on exactly one
// thread, with no ordering guarantee — callers make results deterministic
// by writing fn(i)'s output to slot i of a pre-sized vector and deriving
// any per-cell randomness from i, never from execution order.
//
// Exceptions thrown by tasks are captured; the first one (by completion
// order) is rethrown on the calling thread from wait_all() /
// parallel_for_index(). Remaining tasks still run to completion so the
// pool is never left with dangling work.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/thread_annotations.hpp"

namespace ppg {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1; clamped up from 0).
  explicit ThreadPool(std::size_t num_threads);

  /// Joins all workers; pending tasks are completed first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return workers_.size(); }

  /// Enqueues a task. Tasks must not call submit() or wait_all() on the
  /// same pool (no nested parallelism — sweeps are a flat cell list).
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished. Rethrows the first
  /// captured task exception, if any.
  void wait_all();

  /// Runs fn(i) for every i in [0, n), fanning out across the pool's
  /// workers with the calling thread participating, and blocks until all
  /// calls return. Indices are claimed from a shared counter, so
  /// assignment to threads is load-balanced but unordered — callers write
  /// fn(i)'s output to slot i and fold sequentially.
  /// Rethrows the first task exception after the batch quiesces.
  void run_batch(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Job count meaning "use the hardware": hardware_concurrency, with a
  /// floor of 1 when the runtime reports 0.
  static std::size_t hardware_jobs();

 private:
  void worker_loop();

  // ppg::Mutex + condition_variable_any (instead of std::mutex +
  // condition_variable) so clang's -Wthread-safety can check the
  // PPG_GUARDED_BY claims below; see util/thread_annotations.hpp.
  Mutex mutex_;
  std::condition_variable_any work_ready_;
  std::condition_variable_any all_done_;
  std::deque<std::function<void()>> queue_ PPG_GUARDED_BY(mutex_);
  std::size_t in_flight_ PPG_GUARDED_BY(mutex_) = 0;  // queued + executing
  std::exception_ptr first_error_ PPG_GUARDED_BY(mutex_);
  bool stopping_ PPG_GUARDED_BY(mutex_) = false;
  // Populated in the constructor and joined in the destructor only; the
  // workers never touch the vector itself, so no guard applies.
  // ppg-lint: allow(guard-annotation): ctor/dtor-only access, no worker use
  std::vector<std::thread> workers_;
};

/// Runs fn(i) for every i in [0, n) across up to `jobs` threads (inline
/// when jobs <= 1 or n <= 1, so --jobs 1 exercises the exact serial path).
/// Otherwise a pool of jobs - 1 workers runs the indices with the calling
/// thread, via run_batch. Blocks until all calls finish; rethrows the
/// first task exception.
void parallel_for_index(std::size_t jobs, std::size_t n,
                        const std::function<void(std::size_t)>& fn);

}  // namespace ppg
