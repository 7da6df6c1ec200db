// util/atomic_file: whole-file atomic replacement, the write primitive
// behind replay dumps and the lint/analyze reports.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "test_helpers.hpp"
#include "util/atomic_file.hpp"
#include "util/error.hpp"

namespace ppg {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

class AtomicFile : public ::testing::Test {
 protected:
  void SetUp() override { path_ = test::unique_temp_path("atomic_test.bin"); }
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  std::string path_;
};

TEST_F(AtomicFile, WriteCreatesAndReplaces) {
  atomic_write_file(path_, "first contents");
  EXPECT_EQ(slurp(path_), "first contents");
  atomic_write_file(path_, "second, shorter");
  EXPECT_EQ(slurp(path_), "second, shorter");
}

TEST_F(AtomicFile, WriteHandlesBinaryAndEmptyPayloads) {
  const std::string binary("\x00\xff\x7f\n\r\x01", 6);
  atomic_write_file(path_, binary);
  EXPECT_EQ(slurp(path_), binary);
  atomic_write_file(path_, "");
  EXPECT_EQ(slurp(path_), "");
}

TEST_F(AtomicFile, WriteLeavesNoTempBehind) {
  atomic_write_file(path_, "payload");
  std::ifstream tmp(path_ + ".tmp");
  EXPECT_FALSE(tmp.good());
}

TEST_F(AtomicFile, WriteToMissingDirectoryIsStructured) {
  const std::string bad = test::unique_temp_path("no_such_dir") + "/x.bin";
  try {
    atomic_write_file(bad, "payload");
    FAIL() << "wrote into a nonexistent directory";
  } catch (const PpgException& e) {
    EXPECT_EQ(e.error().code, ErrorCode::kIoError);
    EXPECT_FALSE(e.error().path.empty());
  }
}

}  // namespace
}  // namespace ppg
