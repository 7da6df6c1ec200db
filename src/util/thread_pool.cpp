#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace ppg {

namespace {

/// The first exception thrown by any claiming thread.
class FirstError {
 public:
  void capture() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!error_) error_ = std::current_exception();
  }

  /// Called after the join, when no claiming thread is left.
  void rethrow() {
    std::exception_ptr error;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      error = error_;
    }
    if (error) std::rethrow_exception(error);
  }

 private:
  std::mutex mutex_;
  std::exception_ptr error_;  // Guarded by mutex_.
};

}  // namespace

std::size_t hardware_jobs() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

void parallel_for_index(std::size_t jobs, std::size_t n,
                        const std::function<void(std::size_t)>& fn) {
  if (jobs <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  FirstError first_error;
  const auto claim = [&] {
    try {
      for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
           i < n; i = next.fetch_add(1, std::memory_order_relaxed))
        fn(i);
    } catch (...) {
      first_error.capture();
    }
  };
  // The caller claims too, so the work never waits on a thread the OS has
  // not scheduled yet. A failed spawn is reported like a failed call, after
  // the threads already running have been joined.
  std::vector<std::thread> helpers;
  const std::size_t threads = std::min(jobs, n);
  try {
    helpers.reserve(threads - 1);
    for (std::size_t t = 1; t < threads; ++t) helpers.emplace_back(claim);
  } catch (...) {
    first_error.capture();
  }
  claim();
  for (std::thread& helper : helpers) helper.join();
  first_error.rethrow();
}

}  // namespace ppg
