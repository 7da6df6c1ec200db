// Structured error type: formatting, context fields, exception carrier.
#include <gtest/gtest.h>

#include "util/error.hpp"

namespace ppg {
namespace {

TEST(Error, DefaultIsOk) {
  Error e;
  EXPECT_TRUE(e.ok());
  EXPECT_TRUE(RunStatus::success().ok());
}

TEST(Error, ToStringCarriesCodeAndMessage) {
  Error e;
  e.code = ErrorCode::kCorruptTrace;
  e.message = "bad magic";
  EXPECT_EQ(e.to_string(), "[corrupt-trace] bad magic");
}

TEST(Error, ToStringAppendsContextFields) {
  Error e;
  e.code = ErrorCode::kContractViolation;
  e.message = "zero-height box";
  e.proc = 3;
  e.time = 42;
  EXPECT_EQ(e.to_string(), "[contract-violation] zero-height box (proc 3, t=42)");

  Error io;
  io.code = ErrorCode::kCorruptTrace;
  io.message = "truncated";
  io.byte_offset = 17;
  io.path = "x.bin";
  EXPECT_EQ(io.to_string(), "[corrupt-trace] truncated (offset 17, file x.bin)");
}

TEST(Error, EveryCodeHasAName) {
  for (const ErrorCode code :
       {ErrorCode::kOk, ErrorCode::kBadInput, ErrorCode::kCorruptTrace,
        ErrorCode::kIoError, ErrorCode::kContractViolation,
        ErrorCode::kWatchdogTimeout, ErrorCode::kInternal,
        ErrorCode::kCellBudgetExceeded, ErrorCode::kResourceExhausted,
        ErrorCode::kTenantBudgetExceeded,
        ErrorCode::kTenantDeadlineExceeded}) {
    EXPECT_STRNE(error_code_name(code), "unknown");
  }
  // 9 and 10 are retired; the tenant codes keep the numbers replay dumps
  // already store.
  for (const int retired : {9, 10})
    EXPECT_STREQ(error_code_name(static_cast<ErrorCode>(retired)), "unknown");
  EXPECT_EQ(static_cast<int>(ErrorCode::kTenantBudgetExceeded), 11);
  EXPECT_EQ(static_cast<int>(ErrorCode::kTenantDeadlineExceeded), 12);
}

TEST(Error, ExceptionCarriesErrorAndDerivesRuntimeError) {
  try {
    throw_error(ErrorCode::kIoError, "cannot open", kNoOffset, "f.bin");
    FAIL() << "throw_error did not throw";
  } catch (const std::runtime_error& e) {  // legacy handlers keep working
    const auto* ppg = dynamic_cast<const PpgException*>(&e);
    ASSERT_NE(ppg, nullptr);
    EXPECT_EQ(ppg->error().code, ErrorCode::kIoError);
    EXPECT_EQ(ppg->error().path, "f.bin");
    EXPECT_NE(std::string(e.what()).find("cannot open"), std::string::npos);
  }
}

TEST(RunStatus, FailureCarriesError) {
  Error e;
  e.code = ErrorCode::kWatchdogTimeout;
  e.message = "too slow";
  const RunStatus status = RunStatus::failure(e);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.error.code, ErrorCode::kWatchdogTimeout);
  EXPECT_TRUE(status.replay_dump_path.empty());
}

}  // namespace
}  // namespace ppg
