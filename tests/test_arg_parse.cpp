#include <gtest/gtest.h>

#include <stdexcept>

#include "core/scheduler_factory.hpp"
#include "trace/workload.hpp"
#include "util/arg_parse.hpp"
#include "util/error.hpp"

namespace ppg {
namespace {

ArgParser parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return ArgParser(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgParser, EqualsForm) {
  const ArgParser args = parse({"--p=32", "--name=det"});
  EXPECT_EQ(args.get_int("p", 0), 32);
  EXPECT_EQ(args.get_count("p", 0, 32), 32u);  // min is inclusive
  EXPECT_EQ(args.get_string("name", ""), "det");
}

TEST(ArgParser, SpaceForm) {
  const ArgParser args = parse({"--p", "32", "--ratio", "1.5"});
  EXPECT_EQ(args.get_int("p", 0), 32);
  EXPECT_DOUBLE_EQ(args.get_double("ratio", 0.0), 1.5);
}

TEST(ArgParser, BooleanFlag) {
  const ArgParser args = parse({"--csv", "--verbose"});
  EXPECT_TRUE(args.get_bool("csv"));
  EXPECT_TRUE(args.get_bool("verbose"));
  EXPECT_FALSE(args.get_bool("missing"));
}

TEST(ArgParser, ExplicitBooleanValues) {
  const ArgParser args = parse({"--a=true", "--b=false", "--c=1", "--d=no"});
  EXPECT_TRUE(args.get_bool("a"));
  EXPECT_FALSE(args.get_bool("b"));
  EXPECT_TRUE(args.get_bool("c"));
  EXPECT_FALSE(args.get_bool("d"));
}

TEST(ArgParser, FallbacksWhenAbsent) {
  const ArgParser args = parse({});
  EXPECT_EQ(args.get_int("p", 7), 7);
  EXPECT_EQ(args.get_count("p", 7, 1), 7u);
  EXPECT_EQ(args.get_string("w", "x"), "x");
  EXPECT_DOUBLE_EQ(args.get_double("d", 2.5), 2.5);
}

TEST(ArgParser, PositionalArguments) {
  const ArgParser args = parse({"file1", "--p=2", "file2"});
  EXPECT_EQ(args.positional(),
            (std::vector<std::string>{"file1", "file2"}));
}

TEST(ArgParser, RejectsMalformedNumbers) {
  const ArgParser args = parse(
      {"--p=12x", "--d=1.2.3", "--b=maybe", "--n=-1", "--k=0"});
  EXPECT_THROW(args.get_int("p", 0), PpgException);
  EXPECT_THROW(args.get_double("d", 0.0), PpgException);
  EXPECT_THROW(args.get_bool("b"), PpgException);
  EXPECT_THROW(args.get_count("n", 0), PpgException);      // negative
  EXPECT_THROW(args.get_count("k", 64, 1), PpgException);  // below min
}

TEST(ArgParser, MalformedNumberCarriesStructuredError) {
  const ArgParser args = parse({"--p=12x"});
  try {
    args.get_int("p", 0);
    FAIL() << "expected PpgException";
  } catch (const PpgException& e) {
    EXPECT_EQ(e.error().code, ErrorCode::kBadInput);
    EXPECT_NE(e.error().message.find("--p"), std::string::npos);
  }
}

TEST(ArgParser, RejectsBareDoubleDash) {
  std::vector<const char*> argv{"prog", "--"};
  EXPECT_THROW(ArgParser(2, argv.data()), PpgException);
}

TEST(ArgParser, UnusedKeysTracksQueries) {
  const ArgParser args = parse({"--used=1", "--typo=2"});
  EXPECT_EQ(args.get_int("used", 0), 1);
  const auto unused = args.unused_keys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(ParseKinds, SchedulerRoundtrip) {
  for (const SchedulerKind kind : all_scheduler_kinds()) {
    const auto parsed = parse_scheduler_kind(scheduler_kind_name(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(parse_scheduler_kind("NOPE").has_value());
}

TEST(ParseKinds, WorkloadRoundtrip) {
  for (const WorkloadKind kind : all_workload_kinds()) {
    const auto parsed = parse_workload_kind(workload_kind_name(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(parse_workload_kind("NOPE").has_value());
}

}  // namespace
}  // namespace ppg
