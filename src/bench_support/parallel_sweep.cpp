#include "bench_support/parallel_sweep.hpp"

#include <string>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace ppg {

std::size_t jobs_from_args(const ArgParser& args) {
  const std::string value = args.get_string("jobs", "1");
  if (value == "max") return hardware_jobs();
  std::size_t pos = 0;
  long long parsed = -1;
  try {
    parsed = std::stoll(value, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos != value.size() || parsed < 0 ||
      static_cast<unsigned long long>(parsed) > kMaxJobs) {
    throw_error(ErrorCode::kBadInput,
                "--jobs expects an integer in [0, " +
                    std::to_string(kMaxJobs) + "] or 'max', got '" + value +
                    "'");
  }
  return parsed == 0 ? hardware_jobs()
                     : static_cast<std::size_t>(parsed);
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
