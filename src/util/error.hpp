// Structured, recoverable errors.
//
// The library distinguishes two failure families. *Internal invariants*
// (conservation of requests, memory accounting) abort via PPG_CHECK —
// continuing would corrupt results. *Input-shaped problems* — a corrupt
// trace file, a misbehaving scheduler plugged in from outside, a runaway
// simulation tripping the watchdog — are facts about the world, not bugs
// in this code, and must be diagnosable without killing a whole benchmark
// sweep. Those travel as ppg::Error: a code, a message, and the context
// needed to reproduce (processor, simulated time, byte offset, path).
//
// Errors propagate either by value (RunStatus from the checked engine
// entry points) or as PpgException, which derives std::runtime_error so
// call sites that predate the structured layer keep working.
#pragma once

#include <stdexcept>
#include <string>

#include "util/types.hpp"

namespace ppg {

enum class ErrorCode : std::uint8_t {
  kOk = 0,
  kBadInput,            ///< Malformed caller-supplied argument or config.
  kCorruptTrace,        ///< Trace stream failed validation (I/O layer).
  kIoError,             ///< File could not be opened / written.
  kContractViolation,   ///< A scheduler broke the box contract.
  kWatchdogTimeout,     ///< Simulated time passed EngineConfig::max_time.
  kInternal,            ///< Unexpected failure escaping a component.
  kCellBudgetExceeded,  ///< Sweep cell passed its simulated-step budget.
  kResourceExhausted,   ///< Allocation failure (std::bad_alloc) surfaced.
  // 9 and 10 are retired (sweep-journal errors); replay dumps store codes
  // as bytes, so the numbers below stay pinned.
  kTenantBudgetExceeded = 11,    ///< One processor passed its tenant budget.
  kTenantDeadlineExceeded = 12,  ///< One processor passed its deadline.
};

const char* error_code_name(ErrorCode code);

/// Sentinel for "no byte offset recorded".
inline constexpr std::uint64_t kNoOffset =
    std::numeric_limits<std::uint64_t>::max();

struct Error {
  ErrorCode code = ErrorCode::kOk;
  std::string message;

  // Optional diagnostic context; sentinel values mean "not applicable".
  ProcId proc = kInvalidProc;          ///< Processor involved, if any.
  Time time = kTimeInfinity;           ///< Simulated time, if any.
  std::uint64_t byte_offset = kNoOffset;  ///< Stream position, if any.
  std::string path;                    ///< File involved, if any.

  bool ok() const { return code == ErrorCode::kOk; }

  /// "[contract-violation] zero-height box (proc 3, t=17)".
  std::string to_string() const;
};

/// Exception carrier for Error. Derives std::runtime_error so existing
/// `catch (const std::runtime_error&)` handlers and tests keep working.
class PpgException : public std::runtime_error {
 public:
  explicit PpgException(Error error);
  const Error& error() const { return error_; }

 private:
  Error error_;
};

/// Convenience thrower with inline context.
[[noreturn]] void throw_error(ErrorCode code, std::string message,
                              std::uint64_t byte_offset = kNoOffset,
                              std::string path = {});

/// Outcome of a checked run: either ok, or the structured error plus the
/// path of the replay dump written for it (empty if dumping was disabled
/// or failed).
struct RunStatus {
  Error error;
  std::string replay_dump_path;

  bool ok() const { return error.ok(); }
  static RunStatus success() { return RunStatus{}; }
  static RunStatus failure(Error error) { return RunStatus{std::move(error), {}}; }
};

}  // namespace ppg
