// Fork-join parallel-for: the sweep harness's only source of threads.
//
// The sweep harness (bench_support/parallel_sweep.hpp) runs independent
// experiment cells concurrently. Determinism is the contract that makes
// that safe to expose as a --jobs flag: parallel_for_index(jobs, n, fn)
// calls fn(i) exactly once for every i in [0, n), each i on exactly one
// thread, with no ordering guarantee — callers make results deterministic
// by writing fn(i)'s output to slot i of a pre-sized vector and deriving
// any per-cell randomness from i, never from execution order.
//
// An exception thrown by fn stops the thread that threw it from claiming
// more indices; the other threads drain the rest. After the join, the
// first captured exception (by completion order) is rethrown on the
// calling thread.
#pragma once

#include <cstddef>
#include <functional>

namespace ppg {

/// Job count meaning "use the hardware": hardware_concurrency, with a
/// floor of 1 when the runtime reports 0.
std::size_t hardware_jobs();

/// Runs fn(i) for every i in [0, n) across up to `jobs` threads (inline,
/// in index order, when jobs <= 1 or n <= 1, so --jobs 1 exercises the
/// exact serial path). Otherwise it spawns min(jobs, n) - 1 threads that
/// claim indices from one shared counter together with the calling
/// thread, joins them, and rethrows the first exception any call threw.
void parallel_for_index(std::size_t jobs, std::size_t n,
                        const std::function<void(std::size_t)>& fn);

}  // namespace ppg
