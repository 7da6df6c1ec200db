#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

namespace ppg {

ThreadPool::ThreadPool(std::size_t num_threads) {
  const std::size_t n = std::max<std::size_t>(1, num_threads);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    MutexLock lock(mutex_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_ready_.notify_one();
}

void ThreadPool::wait_all() {
  // Explicit wait loop (not the predicate overload) so clang's thread-safety
  // analysis sees the guarded reads happen under mutex_; the error is moved
  // out of the critical section before rethrowing.
  std::exception_ptr error;
  {
    MutexLock lock(mutex_);
    while (in_flight_ != 0) all_done_.wait(mutex_);
    error = std::exchange(first_error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::run_batch(std::size_t n,
                           const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (n == 1) {
    fn(0);
    return;
  }
  // One claiming task per worker; the caller claims too, so a batch never
  // waits on a worker that the OS has not scheduled yet.
  auto next = std::make_shared<std::atomic<std::size_t>>(0);
  const auto claim = [next, n, &fn] {
    for (;;) {
      const std::size_t i = next->fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      fn(i);
    }
  };
  const std::size_t helpers = std::min(num_threads(), n - 1);
  for (std::size_t w = 0; w < helpers; ++w) submit(claim);
  // The caller's claims may throw straight through; the pool still owes us
  // quiescence (and the first captured worker exception) via wait_all.
  try {
    claim();
  } catch (...) {
    wait_all();
    throw;
  }
  wait_all();
}

std::size_t ThreadPool::hardware_jobs() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!stopping_ && queue_.empty()) work_ready_.wait(mutex_);
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    try {
      task();
    } catch (...) {
      MutexLock lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    {
      MutexLock lock(mutex_);
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

void parallel_for_index(std::size_t jobs, std::size_t n,
                        const std::function<void(std::size_t)>& fn) {
  if (jobs <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  ThreadPool pool(std::min(jobs, n) - 1);
  pool.run_batch(n, fn);
}

}  // namespace ppg
