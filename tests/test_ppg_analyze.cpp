// Fixture + synthetic-graph suite for ppg_analyze, mirroring
// test_ppg_lint.cpp: every per-file rule must (a) fire on its violating
// fixture and on nothing else there, (b) stay silent on the clean twin, and
// (c) be silenced by the suppression comment; the two include-graph rules
// are driven by synthetic source sets (clean DAG, upward edge, cycle,
// undeclared layer, suppressed edge). The registry check at the bottom
// guarantees a rule cannot be added without joining one of the two
// families.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analyze.hpp"
#include "include_graph.hpp"

namespace ppg::analyze {
namespace {

using lint::Finding;
using lint::ScannedFile;

std::string read_fixture(const std::string& name) {
  std::ifstream in(std::string(PPG_LINT_FIXTURE_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture " << name;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<Finding> analyze_fixture(const std::string& name) {
  const std::string text = read_fixture(name);
  ScannedFile scanned(name, text);
  return run_file_rules(scanned);
}

std::vector<Finding> analyze_snippet(const std::string& text,
                                     const std::string& path =
                                         "src/paging/snippet.hpp") {
  ScannedFile scanned(path, text);
  return run_file_rules(scanned);
}

// ---------------------------------------------------------------------------
// Per-file rule fixtures (trios, exactly like the ppg_lint suite).

struct AnalyzeRuleCase {
  const char* rule;
  const char* stem;
  const char* ext;

  friend void PrintTo(const AnalyzeRuleCase& c, std::ostream* os) {
    *os << c.rule;
  }
};

const AnalyzeRuleCase kCases[] = {
    {"static-mutable", "static_mutable", ".cpp"},
    {"unseeded-rng", "unseeded_rng", ".cpp"},
};

class AnalyzeRule : public ::testing::TestWithParam<AnalyzeRuleCase> {};

TEST_P(AnalyzeRule, FiresOnBadFixture) {
  const AnalyzeRuleCase& c = GetParam();
  const auto findings =
      analyze_fixture(std::string(c.stem) + "_bad" + c.ext);
  ASSERT_FALSE(findings.empty()) << c.rule << " did not fire";
  for (const Finding& f : findings)
    EXPECT_EQ(f.rule, c.rule) << "unexpected rule at line " << f.line << ": "
                              << f.message;
}

TEST_P(AnalyzeRule, SilentOnGoodFixture) {
  const AnalyzeRuleCase& c = GetParam();
  const auto findings =
      analyze_fixture(std::string(c.stem) + "_good" + c.ext);
  for (const Finding& f : findings)
    ADD_FAILURE() << c.stem << "_good" << c.ext << ":" << f.line << " ["
                  << f.rule << "] " << f.message;
}

TEST_P(AnalyzeRule, SuppressionSilencesBadFixture) {
  const AnalyzeRuleCase& c = GetParam();
  const auto findings =
      analyze_fixture(std::string(c.stem) + "_suppressed" + c.ext);
  for (const Finding& f : findings)
    ADD_FAILURE() << c.stem << "_suppressed" << c.ext << ":" << f.line
                  << " [" << f.rule << "] " << f.message;
}

INSTANTIATE_TEST_SUITE_P(
    AllRules, AnalyzeRule, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<AnalyzeRuleCase>& param_info) {
      std::string name = param_info.param.rule;
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

// Every registry rule is exercised: per-file rules by a fixture trio, the
// two graph rules by the synthetic suites below. A rule added to the
// registry without a trio (or vice versa) is a test failure, not drift.
TEST(AnalyzeRegistry, EveryRuleHasACoveringSuite) {
  std::set<std::string> covered = {"layer-upward", "layer-cycle"};
  for (const AnalyzeRuleCase& c : kCases) covered.insert(c.rule);
  std::set<std::string> registered;
  for (const lint::RuleDesc& rule : all_rules()) registered.insert(rule.id);
  EXPECT_EQ(covered, registered);
}

// ---------------------------------------------------------------------------
// Scope-scanner precision on inline snippets.

TEST(AnalyzeScan, ConstGlobalsAndDeclarationsStaySilent) {
  const auto findings = analyze_snippet(
      "#pragma once\n"
      "namespace ppg {\n"
      "constexpr int kTable = 3;\n"
      "const char* const kName = \"x\";\n"
      "int pure_function(int x);\n"
      "struct Fwd;\n"
      "using Alias = int;\n"
      "}\n");
  EXPECT_TRUE(findings.empty());
}

TEST(AnalyzeScan, DefaultArgumentBraceInitIsNotAGlobal) {
  // Regression: `= std::uint64_t{1} << 32` inside a parameter list once
  // confused the brace classifier into reporting a namespace-scope global.
  const auto findings = analyze_snippet(
      "namespace ppg {\n"
      "int f(unsigned long long base = (unsigned long long){1} << 32);\n"
      "int g(int x = int{2});\n"
      "}\n");
  EXPECT_TRUE(findings.empty());
}

TEST(AnalyzeScan, StructInstanceAfterBodyIsAGlobal) {
  const auto findings = analyze_snippet(
      "namespace ppg {\n"
      "struct Config { int x = 0; };\n"
      "struct Registry {\n"
      "  int count = 0;\n"
      "} g_registry;\n"
      "}\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "static-mutable");
  EXPECT_NE(findings[0].message.find("g_registry"), std::string::npos);
}

TEST(AnalyzeScan, BraceInitializedGlobalIsFlagged) {
  const auto findings = analyze_snippet(
      "namespace ppg {\n"
      "std::atomic<int> g_flag{0};\n"
      "}\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "static-mutable");
  EXPECT_EQ(findings[0].line, 2u);
}

TEST(AnalyzeScan, CommentsAndStringsNeverFire) {
  const auto findings = analyze_snippet(
      "namespace ppg {\n"
      "// int g_commented = 0; static int also_commented = 1;\n"
      "const char* kSnippet = \"int g_quoted = 0;\";\n"
      "}\n");
  EXPECT_TRUE(findings.empty());
}

TEST(AnalyzeScan, DesignatedExemptionsApplyByPathSuffix) {
  // static-mutable has no exemptions: a process global is a finding in
  // every file.
  const std::string global = "namespace ppg {\nint g_flag = 0;\n}\n";
  EXPECT_EQ(analyze_snippet(global, "src/util/interrupt.cpp").size(), 1u);
  EXPECT_EQ(analyze_snippet(global, "src/util/other.cpp").size(), 1u);
  // The generator's own header defines Rng, so only it may spell a
  // seedless construction.
  const std::string unseeded =
      "namespace ppg {\nvoid f() { auto r = Rng{}; }\n}\n";
  EXPECT_TRUE(analyze_snippet(unseeded, "src/util/rng.hpp").empty());
  const auto flagged = analyze_snippet(unseeded, "src/util/other.cpp");
  ASSERT_EQ(flagged.size(), 1u);
  EXPECT_EQ(flagged[0].rule, "unseeded-rng");
}

// ---------------------------------------------------------------------------
// LayerSpec parsing.

TEST(LayerSpecTest, ParsesDeclarationOrderAndEdges) {
  const LayerSpec spec = LayerSpec::parse(
      "# comment\n"
      "layer util:\n"
      "layer trace: util\n"
      "layer core: trace util\n");
  EXPECT_EQ(spec.order(), (std::vector<std::string>{"util", "trace", "core"}));
  EXPECT_TRUE(spec.edge_allowed("core", "util"));
  EXPECT_TRUE(spec.edge_allowed("trace", "trace"));
  EXPECT_FALSE(spec.edge_allowed("util", "trace"));
  EXPECT_FALSE(spec.edge_allowed("util", "nope"));
}

TEST(LayerSpecTest, RejectsForwardAndSelfDependencies) {
  // Deps must be declared above: the property that keeps the spec acyclic
  // by construction.
  EXPECT_THROW(LayerSpec::parse("layer a: b\nlayer b:\n"),
               std::runtime_error);
  EXPECT_THROW(LayerSpec::parse("layer a: a\n"), std::runtime_error);
  EXPECT_THROW(LayerSpec::parse("layer a:\nlayer a:\n"), std::runtime_error);
  EXPECT_THROW(LayerSpec::parse("floor a:\n"), std::runtime_error);
  EXPECT_THROW(LayerSpec::parse("layer a\n"), std::runtime_error);
  EXPECT_THROW(LayerSpec::parse("# only comments\n"), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Include-graph rules on synthetic source sets.

LayerSpec two_layers() {
  return LayerSpec::parse("layer util:\nlayer trace: util\n");
}

TEST(IncludeGraph, CleanDagIsSilent) {
  const std::vector<SourceText> files = {
      {"util/a.hpp", "#pragma once\n"},
      {"trace/b.hpp", "#pragma once\n#include \"util/a.hpp\"\n"},
      {"trace/c.hpp", "#pragma once\n#include \"trace/b.hpp\"\n"
                      "#include <vector>\n#include \"gtest/gtest.h\"\n"},
  };
  EXPECT_TRUE(check_layering(files, two_layers()).empty());
}

TEST(IncludeGraph, UpwardEdgeIsFlaggedWithTheEdge) {
  const std::vector<SourceText> files = {
      {"util/a.hpp", "#pragma once\n#include \"trace/b.hpp\"\n"},
      {"trace/b.hpp", "#pragma once\n"},
  };
  const auto findings = check_layering(files, two_layers());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "util/a.hpp");
  EXPECT_EQ(findings[0].finding.rule, "layer-upward");
  EXPECT_EQ(findings[0].finding.line, 2u);
  EXPECT_NE(findings[0].finding.message.find("trace/b.hpp"),
            std::string::npos);
  EXPECT_NE(findings[0].finding.message.find("'util'"), std::string::npos);
}

TEST(IncludeGraph, CycleIsFlaggedOnceWithTheFullPath) {
  const std::vector<SourceText> files = {
      {"util/a.hpp", "#pragma once\n#include \"util/b.hpp\"\n"},
      {"util/b.hpp", "#pragma once\n#include \"util/c.hpp\"\n"},
      {"util/c.hpp", "#pragma once\n#include \"util/a.hpp\"\n"},
  };
  const auto findings = check_layering(files, two_layers());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].finding.rule, "layer-cycle");
  EXPECT_NE(
      findings[0].finding.message.find(
          "util/a.hpp -> util/b.hpp -> util/c.hpp -> util/a.hpp"),
      std::string::npos)
      << findings[0].finding.message;
}

TEST(IncludeGraph, UndeclaredLayerIsFlagged) {
  const std::vector<SourceText> files = {
      {"mystery/a.hpp", "#pragma once\n"},
  };
  const auto findings = check_layering(files, two_layers());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].finding.rule, "layer-upward");
  EXPECT_NE(findings[0].finding.message.find("'mystery'"),
            std::string::npos);
}

TEST(IncludeGraph, SelfAndDownwardEdgesAreAllowed) {
  const std::vector<SourceText> files = {
      {"util/a.hpp", "#pragma once\n"},
      {"util/b.hpp", "#pragma once\n#include \"util/a.hpp\"\n"},
      {"trace/c.hpp", "#pragma once\n#include \"util/b.hpp\"\n"},
  };
  EXPECT_TRUE(check_layering(files, two_layers()).empty());
}

// ---------------------------------------------------------------------------
// Whole-pipeline behaviour (what the CLI wraps).

TEST(AnalyzeSourceSet, CombinesGraphAndFileFindingsSorted) {
  const std::vector<SourceText> files = {
      {"util/a.hpp",
       "#pragma once\n#include \"trace/b.hpp\"\nnamespace ppg {\n"
       "int g_state = 0;\n}\n"},
      {"trace/b.hpp", "#pragma once\n"},
  };
  const auto findings = analyze_source_set(files, two_layers());
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].file, "util/a.hpp");
  EXPECT_EQ(findings[0].finding.rule, "layer-upward");
  EXPECT_EQ(findings[1].finding.rule, "static-mutable");
}

TEST(AnalyzeSourceSet, SuppressionSilencesAGraphEdge) {
  const std::vector<SourceText> files = {
      {"util/a.hpp",
       "#pragma once\n"
       "// ppg-lint: allow(layer-upward): transitional, tracked in #42\n"
       "#include \"trace/b.hpp\"\n"},
      {"trace/b.hpp", "#pragma once\n"},
  };
  EXPECT_TRUE(analyze_source_set(files, two_layers()).empty());
}

}  // namespace
}  // namespace ppg::analyze
