// Clean: temp files come from the per-test helper (test name + pid), and a
// bare TempDir() used as a directory is not a fixed file name.
#include <gtest/gtest.h>

#include <string>

#include "test_helpers.hpp"

std::string journal_path() {
  return ppg::test::unique_temp_path("journal_test.ppgjrnl");
}

std::string dump_dir() { return testing::TempDir(); }
