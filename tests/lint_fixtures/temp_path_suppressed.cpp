// Same violation, silenced per line.
#include <gtest/gtest.h>

#include <string>

std::string journal_path() {
  // ppg-lint: allow(temp-path): fixture
  return testing::TempDir() + "ppg_journal_test.ppgjrnl";
}
