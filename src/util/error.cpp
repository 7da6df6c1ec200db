#include "util/error.hpp"

#include <sstream>

namespace ppg {

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk: return "ok";
    case ErrorCode::kBadInput: return "bad-input";
    case ErrorCode::kCorruptTrace: return "corrupt-trace";
    case ErrorCode::kIoError: return "io-error";
    case ErrorCode::kContractViolation: return "contract-violation";
    case ErrorCode::kWatchdogTimeout: return "watchdog-timeout";
    case ErrorCode::kInternal: return "internal";
    case ErrorCode::kCellBudgetExceeded: return "cell-budget-exceeded";
    case ErrorCode::kResourceExhausted: return "resource-exhausted";
    case ErrorCode::kTenantBudgetExceeded: return "tenant-budget-exceeded";
    case ErrorCode::kTenantDeadlineExceeded: return "tenant-deadline-exceeded";
  }
  return "unknown";
}

std::string Error::to_string() const {
  std::ostringstream out;
  out << '[' << error_code_name(code) << "] " << message;
  bool open = false;
  const auto ctx = [&](const char* label) -> std::ostream& {
    out << (open ? ", " : " (") << label;
    open = true;
    return out;
  };
  if (proc != kInvalidProc) ctx("proc ") << proc;
  if (time != kTimeInfinity) ctx("t=") << time;
  if (byte_offset != kNoOffset) ctx("offset ") << byte_offset;
  if (!path.empty()) ctx("file ") << path;
  if (open) out << ')';
  return out.str();
}

PpgException::PpgException(Error error)
    : std::runtime_error(error.to_string()), error_(std::move(error)) {}

void throw_error(ErrorCode code, std::string message,
                 std::uint64_t byte_offset, std::string path) {
  Error error;
  error.code = code;
  error.message = std::move(message);
  error.byte_offset = byte_offset;
  error.path = std::move(path);
  throw PpgException(std::move(error));
}

}  // namespace ppg
