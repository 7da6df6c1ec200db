#include "bench_support/parallel_sweep.hpp"

#include "util/error.hpp"
#include "util/rng.hpp"

namespace ppg {

namespace {

// Parses a thread-count flag: a positive integer, or "max" for one thread
// per hardware core. `zero_means_max` also accepts 0 as an alias of max.
std::size_t thread_count_from_args(const ArgParser& args,
                                   const std::string& flag,
                                   bool zero_means_max) {
  const std::string value = args.get_string(flag, "1");
  if (value == "max") return ThreadPool::hardware_jobs();
  std::size_t pos = 0;
  long long parsed = -1;
  try {
    parsed = std::stoll(value, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  const long long min = zero_means_max ? 0 : 1;
  if (pos != value.size() || parsed < min) {
    throw_error(ErrorCode::kBadInput,
                "--" + flag + " expects a " +
                    (zero_means_max ? "non-negative" : "positive") +
                    " integer or 'max', got '" + value + "'");
  }
  return parsed == 0 ? ThreadPool::hardware_jobs()
                     : static_cast<std::size_t>(parsed);
}

}  // namespace

std::size_t jobs_from_args(const ArgParser& args) {
  return thread_count_from_args(args, "jobs", /*zero_means_max=*/true);
}

std::size_t engine_threads_from_args(const ArgParser& args) {
  return thread_count_from_args(args, "engine-threads",
                                /*zero_means_max=*/false);
}

std::uint64_t cell_seed(std::uint64_t base, std::size_t index) {
  // Two splitmix64 steps decorrelate (base, index) pairs; the golden-ratio
  // increment inside splitmix64 separates neighbouring indices.
  std::uint64_t state = base ^ (0x9e3779b97f4a7c15ULL * (index + 1));
  (void)splitmix64(state);
  return splitmix64(state);
}

std::vector<InstanceOutcome> run_instances(
    const std::vector<InstanceCell>& cells, std::size_t jobs) {
  return sweep_cells(jobs, cells.size(), [&cells](std::size_t i) {
    const InstanceCell& cell = cells[i];
    return run_instance(cell.sources, cell.kinds, cell.config);
  });
}

}  // namespace ppg
