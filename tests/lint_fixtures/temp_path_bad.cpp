// Violates temp-path (test realm): a fixed file name under TempDir() is
// shared by every test case ctest -j runs at the same moment.
#include <gtest/gtest.h>

#include <string>

std::string journal_path() {
  return testing::TempDir() + "ppg_journal_test.ppgjrnl";
}

std::string dump_path() {
  return ::testing::TempDir () + "/ppg_dump.ppgreplay";
}
