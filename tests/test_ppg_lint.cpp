// Fixture suite for ppg_lint: every rule must (a) fire on its violating
// fixture and on nothing else in that fixture, (b) stay silent on the clean
// twin, and (c) be silenced by the suppression comment. This is the proof
// that the PpgLint.Repo gate can neither miss the invariant it guards nor
// lock a justified exception out of the tree.
//
// Fixtures live in tests/lint_fixtures/ (excluded from the repo-wide lint
// walk precisely because the *_bad files violate rules on purpose).
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "rules.hpp"
#include "scan.hpp"

namespace ppg::lint {
namespace {

std::string fixture_path(const std::string& name) {
  return std::string(PPG_LINT_FIXTURE_DIR) + "/" + name;
}

std::string read_fixture(const std::string& name) {
  std::ifstream in(fixture_path(name), std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture " << name;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool is_header_name(const std::string& name) {
  return name.size() >= 4 && name.compare(name.size() - 4, 4, ".hpp") == 0;
}

std::vector<Finding> lint_fixture(const std::string& name, Realm realm,
                                  bool service = false,
                                  bool containment = false) {
  const std::string text = read_fixture(name);
  ScannedFile scanned(name, text);
  FileInfo info;
  info.realm = realm;
  info.is_header = is_header_name(name);
  info.service = service;
  info.containment = containment;
  return run_rules(scanned, info, nullptr);
}

struct RuleCase {
  const char* rule;
  const char* stem;  ///< Fixture prefix: <stem>_bad, _good, _suppressed.
  const char* ext;   ///< ".cpp" or ".hpp".
  Realm realm;       ///< Realm the rule is scoped to.
  bool service = false;      ///< Lint as a src/service/ file.
  bool containment = false;  ///< Lint as a containment-layer file.

  friend void PrintTo(const RuleCase& rule_case, std::ostream* os) {
    *os << rule_case.rule;
  }
};

// Library-only rules run under Realm::kLibrary; universal rules use kApp to
// prove they fire even in the most permissive realm.
const RuleCase kCases[] = {
    {"banned-random", "banned_random", ".cpp", Realm::kApp},
    {"wall-clock", "wall_clock", ".cpp", Realm::kApp},
    {"unordered-iter", "unordered_iter", ".cpp", Realm::kApp},
    {"raw-throw", "raw_throw", ".cpp", Realm::kLibrary},
    {"abort-exit", "abort_exit", ".cpp", Realm::kLibrary},
    {"io-sink", "io_sink", ".cpp", Realm::kLibrary},
    {"raw-file-write", "raw_file_write", ".cpp", Realm::kLibrary},
    {"raw-getenv", "raw_getenv", ".cpp", Realm::kLibrary},
    {"raw-thread", "raw_thread", ".cpp", Realm::kLibrary},
    {"service-io", "service_io", ".cpp", Realm::kLibrary, true},
    {"service-catch-all", "service_catch_all", ".cpp", Realm::kLibrary, false,
     true},
    {"temp-path", "temp_path", ".cpp", Realm::kTest},
    {"pragma-once", "pragma_once", ".hpp", Realm::kApp},
    {"using-namespace-header", "using_namespace", ".hpp", Realm::kApp},
};

class LintRule : public ::testing::TestWithParam<RuleCase> {};

TEST_P(LintRule, FiresOnBadFixture) {
  const RuleCase& rule_case = GetParam();
  const std::vector<Finding> findings = lint_fixture(
      std::string(rule_case.stem) + "_bad" + rule_case.ext, rule_case.realm,
      rule_case.service, rule_case.containment);
  ASSERT_FALSE(findings.empty())
      << rule_case.rule << " did not fire on its bad fixture";
  for (const Finding& finding : findings) {
    EXPECT_EQ(finding.rule, rule_case.rule)
        << "unexpected rule fired on " << rule_case.stem << "_bad at line "
        << finding.line << ": " << finding.message;
    EXPECT_GE(finding.line, 1u);
  }
}

TEST_P(LintRule, SilentOnGoodFixture) {
  const RuleCase& rule_case = GetParam();
  const std::vector<Finding> findings = lint_fixture(
      std::string(rule_case.stem) + "_good" + rule_case.ext, rule_case.realm,
      rule_case.service, rule_case.containment);
  for (const Finding& finding : findings) {
    ADD_FAILURE() << rule_case.stem << "_good is expected clean but got ["
                  << finding.rule << "] at line " << finding.line << ": "
                  << finding.message;
  }
}

TEST_P(LintRule, SuppressionSilencesBadFixture) {
  const RuleCase& rule_case = GetParam();
  const std::vector<Finding> findings =
      lint_fixture(std::string(rule_case.stem) + "_suppressed" + rule_case.ext,
                   rule_case.realm, rule_case.service, rule_case.containment);
  for (const Finding& finding : findings) {
    ADD_FAILURE() << rule_case.stem
                  << "_suppressed should be silenced but got ["
                  << finding.rule << "] at line " << finding.line << ": "
                  << finding.message;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRules, LintRule, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<RuleCase>& param_info) {
      std::string name = param_info.param.rule;
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

// Every rule in the table above must exist in the registry and vice versa,
// so a new rule cannot land without a fixture trio.
TEST(LintRegistry, EveryRuleHasAFixtureCase) {
  std::vector<std::string> registered;
  for (const RuleDesc& rule : all_rules()) registered.push_back(rule.id);
  std::vector<std::string> covered;
  for (const RuleCase& rule_case : kCases) covered.push_back(rule_case.rule);
  std::sort(registered.begin(), registered.end());
  std::sort(covered.begin(), covered.end());
  EXPECT_EQ(registered, covered);
}

// service-io is scoped by the FileInfo flag, not the realm: the same input
// I/O is legal library code elsewhere (e.g. trace/trace_io reads traces).
TEST(LintServiceIo, OnlyFiresWhenFileIsMarkedService) {
  const std::vector<Finding> findings =
      lint_fixture("service_io_bad.cpp", Realm::kLibrary, /*service=*/false);
  for (const Finding& finding : findings) {
    ADD_FAILURE() << "non-service file fired [" << finding.rule
                  << "] at line " << finding.line << ": " << finding.message;
  }
}

// service-catch-all is scoped by the containment flag: type-erasing
// catches are legal library code elsewhere (e.g. tools own their process
// boundary and may catch everything before exiting).
TEST(LintServiceCatchAll, OnlyFiresWhenFileIsMarkedContainment) {
  const std::vector<Finding> findings =
      lint_fixture("service_catch_all_bad.cpp", Realm::kLibrary,
                   /*service=*/false, /*containment=*/false);
  for (const Finding& finding : findings) {
    ADD_FAILURE() << "non-containment file fired [" << finding.rule
                  << "] at line " << finding.line << ": " << finding.message;
  }
}

// temp-path is scoped to the test realm (only tests write under
// testing::TempDir()), and the helper that owns the concatenation is its
// designated exception.
TEST(LintTempPath, OnlyFiresUnderTests) {
  for (const Realm realm : {Realm::kLibrary, Realm::kApp}) {
    for (const Finding& finding : lint_fixture("temp_path_bad.cpp", realm)) {
      ADD_FAILURE() << "non-test file fired [" << finding.rule << "] at line "
                    << finding.line << ": " << finding.message;
    }
  }
  ScannedFile helper("tests/test_helpers.hpp",
                     "#pragma once\n"
                     "std::string p = ::testing::TempDir() + \"x\";\n");
  FileInfo info;
  info.realm = Realm::kTest;
  info.is_header = true;
  EXPECT_TRUE(run_rules(helper, info, nullptr).empty());
}

// --- Scanner unit coverage: the properties the rules rely on. -------------

TEST(LintScanner, StringsAndCommentsAreBlanked) {
  ScannedFile file("f.cpp",
                   "int a; // std::rand() in prose\n"
                   "const char* s = \"std::rand()\";\n"
                   "/* std::abort() */ int b;\n");
  EXPECT_EQ(file.joined_code().find("rand"), std::string::npos);
  EXPECT_EQ(file.joined_code().find("abort"), std::string::npos);
  // Comment text is preserved on its own channel for directive parsing.
  EXPECT_NE(file.lines()[0].comment.find("std::rand"), std::string::npos);
}

TEST(LintScanner, RawStringsAndDigitSeparatorsSurvive) {
  ScannedFile file("f.cpp",
                   "auto s = R\"(time(nullptr))\";\n"
                   "long n = 1'000'000;\n"
                   "char c = 't';\n");
  EXPECT_EQ(file.joined_code().find("time"), std::string::npos);
  // The digit separator must not open a char literal that swallows the rest
  // of the line.
  EXPECT_NE(file.lines()[1].code.find("000;"), std::string::npos);
}

TEST(LintScanner, RawStringEncodingPrefixesAreRecognized) {
  // u8R / uR / UR / LR open raw strings exactly like bare R; a prefix the
  // scanner misses would leave the literal contents in the code channel.
  ScannedFile file("f.cpp",
                   "auto a = u8R\"(time(nullptr))\";\n"
                   "auto b = uR\"(rand())\";\n"
                   "auto c = UR\"(abort())\";\n"
                   "auto d = LR\"(getenv())\";\n");
  EXPECT_EQ(file.joined_code().find("time"), std::string::npos);
  EXPECT_EQ(file.joined_code().find("rand"), std::string::npos);
  EXPECT_EQ(file.joined_code().find("abort"), std::string::npos);
  EXPECT_EQ(file.joined_code().find("getenv"), std::string::npos);
}

TEST(LintScanner, RawStringDelimiterIsNotLeakedIntoCode) {
  // Regression: the closing delimiter of R"delim(...)delim" was once copied
  // into the code channel, so a delimiter spelling a banned token (here
  // "rand") produced a phantom finding.
  ScannedFile file("f.cpp", "auto s = R\"rand(payload)rand\";\n");
  EXPECT_EQ(file.joined_code().find("rand"), std::string::npos);
  EXPECT_EQ(file.joined_code().find("payload"), std::string::npos);
}

TEST(LintScanner, IdentifierEndingInRIsNotARawString) {
  // `fooR"x"` is an identifier followed by an ordinary string literal, not
  // a raw string: the scanner must not treat mid-identifier R as a prefix.
  ScannedFile file("f.cpp", "auto s = fooR\"time(\";\nint t;\n");
  EXPECT_NE(file.joined_code().find("fooR"), std::string::npos);
  EXPECT_EQ(file.joined_code().find("time"), std::string::npos);
  // The ordinary literal closed on its own line: the next line is code.
  EXPECT_NE(file.joined_code().find("int t;"), std::string::npos);
}

TEST(LintScanner, LineMappingIsStable) {
  ScannedFile file("f.cpp", "a\nbb\nccc\n");
  EXPECT_EQ(file.line_of_offset(0), 1u);   // 'a'
  EXPECT_EQ(file.line_of_offset(2), 2u);   // 'b'
  EXPECT_EQ(file.line_of_offset(5), 3u);   // 'c'
}

TEST(LintSuppression, DirectiveCoversOwnAndNextLineOnly) {
  const std::string text =
      "#include <ctime>  // ppg-lint: allow(wall-clock): here\n"
      "long a() { return std::time(nullptr); }  // covered? no: next line "
      "only counts from the directive line\n"
      "long b() { return std::time(nullptr); }\n";
  ScannedFile scanned("f.cpp", text);
  FileInfo info;
  info.realm = Realm::kApp;
  const std::vector<Finding> findings = run_rules(scanned, info, nullptr);
  // Line 1 (directive line) and line 2 (next line) are suppressed; line 3
  // still fires.
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "wall-clock");
  EXPECT_EQ(findings[0].line, 3u);
}

// --- Stale-suppression audit (ppg_lint --prune-suppressions). -------------

std::set<std::string> lint_rule_ids() {
  std::set<std::string> ids;
  for (const RuleDesc& rule : all_rules()) ids.insert(rule.id);
  return ids;
}

TEST(LintStaleSuppressions, LiveDirectiveIsKept) {
  ScannedFile scanned("f.cpp",
                      "// ppg-lint: allow(wall-clock): measured on purpose\n"
                      "long t() { return std::time(nullptr); }\n");
  FileInfo info;
  info.realm = Realm::kApp;
  const auto raw = run_rules_raw(scanned, info, nullptr);
  EXPECT_TRUE(find_stale_suppressions(scanned, raw, lint_rule_ids()).empty());
}

TEST(LintStaleSuppressions, DirectiveWithNoFindingIsStale) {
  ScannedFile scanned("f.cpp",
                      "// ppg-lint: allow(wall-clock): stale rationale\n"
                      "long t() { return 42; }\n");
  FileInfo info;
  info.realm = Realm::kApp;
  const auto raw = run_rules_raw(scanned, info, nullptr);
  const auto stale = find_stale_suppressions(scanned, raw, lint_rule_ids());
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0].rule, "wall-clock");
  EXPECT_EQ(stale[0].line, 1u);
  EXPECT_FALSE(stale[0].file_wide);
}

TEST(LintStaleSuppressions, FindingOutsideCoverageWindowIsStale) {
  // The finding on line 4 is NOT covered by the directive on line 1, so the
  // directive is stale even though the rule fires somewhere in the file.
  ScannedFile scanned("f.cpp",
                      "// ppg-lint: allow(wall-clock): drifted away\n"
                      "long a() { return 1; }\n"
                      "\n"
                      "long b() { return std::time(nullptr); }\n");
  FileInfo info;
  info.realm = Realm::kApp;
  const auto raw = run_rules_raw(scanned, info, nullptr);
  const auto stale = find_stale_suppressions(scanned, raw, lint_rule_ids());
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0].line, 1u);
}

TEST(LintStaleSuppressions, UnknownRuleIdsBelongToTheOtherTool) {
  // The suppression grammar is shared with ppg_analyze: a directive for a
  // rule this tool does not know must never be reported as stale.
  ScannedFile scanned("f.cpp",
                      "// ppg-lint: allow(static-mutable): analyzer-owned\n"
                      "int x;\n");
  FileInfo info;
  info.realm = Realm::kApp;
  const auto raw = run_rules_raw(scanned, info, nullptr);
  EXPECT_TRUE(find_stale_suppressions(scanned, raw, lint_rule_ids()).empty());
}

TEST(LintStaleSuppressions, FileWideDirectiveAuditsTheWholeFile) {
  ScannedFile live("f.cpp",
                   "// ppg-lint: allow-file(wall-clock): bench timing\n"
                   "long a() { return 1; }\n"
                   "long b() { return std::time(nullptr); }\n");
  ScannedFile stale_file("g.cpp",
                         "// ppg-lint: allow-file(wall-clock): leftover\n"
                         "long a() { return 1; }\n");
  FileInfo info;
  info.realm = Realm::kApp;
  EXPECT_TRUE(find_stale_suppressions(
                  live, run_rules_raw(live, info, nullptr), lint_rule_ids())
                  .empty());
  const auto stale = find_stale_suppressions(
      stale_file, run_rules_raw(stale_file, info, nullptr), lint_rule_ids());
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_TRUE(stale[0].file_wide);
}

TEST(LintUnorderedIter, PairedHeaderDeclarationsAreVisible) {
  ScannedFile header("f.hpp",
                     "#pragma once\n"
                     "#include <unordered_map>\n"
                     "struct S { std::unordered_map<int, int> slots_; };\n");
  ScannedFile source("f.cpp",
                     "void drain(S& s) {\n"
                     "  for (const auto& kv : s.slots_) { (void)kv; }\n"
                     "}\n");
  FileInfo info;
  info.realm = Realm::kLibrary;
  info.is_header = false;
  const std::vector<Finding> findings = run_rules(source, info, &header);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "unordered-iter");
  EXPECT_EQ(findings[0].line, 2u);
}

}  // namespace
}  // namespace ppg::lint
