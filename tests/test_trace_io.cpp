#include <gtest/gtest.h>

#include <sstream>

#include "test_helpers.hpp"
#include "trace/generators.hpp"
#include "trace/trace_io.hpp"
#include "util/rng.hpp"

namespace ppg {
namespace {

TEST(TraceIo, RoundtripEmpty) {
  MultiTrace mt;
  std::stringstream ss;
  write_multitrace(ss, mt);
  const MultiTrace back = read_multitrace(ss);
  EXPECT_EQ(back.num_procs(), 0u);
}

TEST(TraceIo, RoundtripPreservesContent) {
  Rng rng(1);
  MultiTrace mt;
  mt.add(gen::uniform_random(50, 1000, rng));
  mt.add(test::make_trace({1, 2, 3}));
  mt.add(Trace{});  // empty trace in the middle of the bundle

  std::stringstream ss;
  write_multitrace(ss, mt);
  const MultiTrace back = read_multitrace(ss);

  ASSERT_EQ(back.num_procs(), 3u);
  for (ProcId i = 0; i < 3; ++i)
    EXPECT_EQ(back.trace(i).requests(), mt.trace(i).requests());
}

TEST(TraceIo, RejectsBadMagic) {
  std::stringstream ss;
  ss << "NOTATRACEFILE----------";
  EXPECT_THROW(read_multitrace(ss), std::runtime_error);
}

TEST(TraceIo, RejectsTruncatedStream) {
  MultiTrace mt;
  mt.add(test::make_trace({1, 2, 3, 4, 5}));
  std::stringstream ss;
  write_multitrace(ss, mt);
  std::string data = ss.str();
  data.resize(data.size() / 2);
  std::stringstream truncated(data);
  EXPECT_THROW(read_multitrace(truncated), std::runtime_error);
}

TEST(TraceIo, FileRoundtrip) {
  MultiTrace mt;
  mt.add(test::make_trace({7, 8, 9}));
  const std::string path = test::unique_temp_path("trace_test.bin");
  save_multitrace(path, mt);
  const MultiTrace back = load_multitrace(path);
  ASSERT_EQ(back.num_procs(), 1u);
  EXPECT_EQ(back.trace(0).requests(), mt.trace(0).requests());
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(load_multitrace("/nonexistent/dir/file.bin"),
               std::runtime_error);
}

TEST(TraceIoText, RoundtripPreservesContent) {
  Rng rng(9);
  MultiTrace mt;
  mt.add(gen::uniform_random(20, 500, rng));
  mt.add(test::make_trace({7, 7, 9}));
  std::stringstream ss;
  write_multitrace_text(ss, mt);
  const MultiTrace back = read_multitrace_text(ss);
  ASSERT_EQ(back.num_procs(), 2u);
  for (ProcId i = 0; i < 2; ++i)
    EXPECT_EQ(back.trace(i).requests(), mt.trace(i).requests());
}

TEST(TraceIoText, ParsesCommentsAndInterleaving) {
  std::stringstream ss;
  ss << "# header comment\n"
     << "1 100\n"
     << "0 5  # trailing comment\n"
     << "\n"
     << "1 101\n"
     << "0 6\n";
  const MultiTrace mt = read_multitrace_text(ss);
  ASSERT_EQ(mt.num_procs(), 2u);
  EXPECT_EQ(mt.trace(0).requests(), (std::vector<PageId>{5, 6}));
  EXPECT_EQ(mt.trace(1).requests(), (std::vector<PageId>{100, 101}));
}

TEST(TraceIoText, GapProcessorsYieldEmptyTraces) {
  std::stringstream ss;
  ss << "2 42\n";
  const MultiTrace mt = read_multitrace_text(ss);
  ASSERT_EQ(mt.num_procs(), 3u);
  EXPECT_TRUE(mt.trace(0).empty());
  EXPECT_TRUE(mt.trace(1).empty());
  EXPECT_EQ(mt.trace(2).requests(), (std::vector<PageId>{42}));
}

TEST(TraceIoText, RejectsMalformedLines) {
  for (const char* bad : {"x y\n", "1\n", "1 2 3\n"}) {
    std::stringstream ss;
    ss << bad;
    EXPECT_THROW(read_multitrace_text(ss), std::runtime_error) << bad;
  }
}

TEST(TraceIoText, FileRoundtrip) {
  MultiTrace mt;
  mt.add(test::make_trace({1, 2, 3}));
  const std::string path = test::unique_temp_path("trace_test.txt");
  save_multitrace_text(path, mt);
  const MultiTrace back = load_multitrace_text(path);
  ASSERT_EQ(back.num_procs(), 1u);
  EXPECT_EQ(back.trace(0).requests(), mt.trace(0).requests());
}

}  // namespace
}  // namespace ppg
