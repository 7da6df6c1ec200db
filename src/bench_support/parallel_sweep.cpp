#include "bench_support/parallel_sweep.hpp"

#include "util/error.hpp"
#include "util/rng.hpp"

namespace ppg {

std::size_t jobs_from_args(const ArgParser& args) {
  const std::string value = args.get_string("jobs", "1");
  if (value == "max") return ThreadPool::hardware_jobs();
  std::size_t pos = 0;
  long long parsed = -1;
  try {
    parsed = std::stoll(value, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos != value.size() || parsed < 0) {
    throw_error(ErrorCode::kBadInput,
                "--jobs expects a non-negative integer or 'max', got '" +
                    value + "'");
  }
  return parsed == 0 ? ThreadPool::hardware_jobs()
                     : static_cast<std::size_t>(parsed);
}

std::size_t engine_threads_from_args(const ArgParser& args) {
  const std::string value = args.get_string("engine-threads", "1");
  if (value == "max") return ThreadPool::hardware_jobs();
  std::size_t pos = 0;
  long long parsed = -1;
  try {
    parsed = std::stoll(value, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos != value.size() || parsed < 1) {
    throw_error(
        ErrorCode::kBadInput,
        "--engine-threads expects a positive integer or 'max', got '" +
            value + "'");
  }
  return static_cast<std::size_t>(parsed);
}

std::unique_ptr<SweepJournal> journal_from_args(const ArgParser& args,
                                                const std::string& binding) {
  const std::string path = args.get_string("journal", "");
  const bool resume = args.get_bool("resume", false);
  if (path.empty()) {
    if (resume)
      throw_error(ErrorCode::kBadInput,
                  "--resume requires --journal PATH (nothing to resume from)");
    return nullptr;
  }
  return resume ? SweepJournal::open_resume(path, binding)
                : SweepJournal::create(path, binding);
}

SweepCli sweep_cli_from_args(const ArgParser& args,
                             const std::string& binding) {
  SweepCli cli;
  cli.options.jobs = jobs_from_args(args);
  cli.engine_threads = engine_threads_from_args(args);
  cli.journal = journal_from_args(args, binding);
  cli.options.journal = cli.journal.get();
  return cli;
}

std::uint64_t cell_seed(std::uint64_t base, std::size_t index) {
  // Two splitmix64 steps decorrelate (base, index) pairs; the golden-ratio
  // increment inside splitmix64 separates neighbouring indices.
  std::uint64_t state = base ^ (0x9e3779b97f4a7c15ULL * (index + 1));
  (void)splitmix64(state);
  return splitmix64(state);
}

void throw_sweep_interrupted(std::size_t completed, std::size_t total,
                             const SweepOptions& opts) {
  std::string msg = "sweep interrupted: " + std::to_string(completed) + "/" +
                    std::to_string(total) + " cells finished";
  if (opts.journal != nullptr) {
    msg += "; finished cells are journaled — rerun with --journal " +
           opts.journal->path() + " --resume to continue";
  } else {
    msg += "; no --journal was attached, partial work is discarded";
  }
  Error error;
  error.code = ErrorCode::kInterrupted;
  error.message = std::move(msg);
  throw PpgException(std::move(error));
}

std::vector<InstanceOutcome> run_instances(
    const std::vector<InstanceCell>& cells, std::size_t jobs) {
  SweepOptions opts;
  opts.jobs = jobs;
  return run_instances(cells, opts);
}

std::vector<InstanceOutcome> run_instances(
    const std::vector<InstanceCell>& cells, const SweepOptions& opts) {
  return sweep_cells(
      opts, cells.size(),
      [&cells](std::size_t i) {
        const InstanceCell& cell = cells[i];
        return run_instance(cell.sources, cell.kinds, cell.config);
      },
      [](CellWriter& w, const InstanceOutcome& o) {
        encode_instance_outcome(w, o);
      },
      [](CellReader& r) { return decode_instance_outcome(r); });
}

}  // namespace ppg
