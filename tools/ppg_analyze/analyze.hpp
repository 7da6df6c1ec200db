// ppg_analyze: architectural static analysis over src/.
//
// ppg_lint (tools/ppg_lint) checks line-local invariants; this tool checks
// the ones that need structure — the include graph against the declared
// layer DAG (include_graph.hpp), and a brace-matching scope scan of each
// file for determinism taints:
//
//   layer-upward      include edge not allowed by tools/ppg_analyze/layers.txt
//   layer-cycle       cycle in the file-level include graph
//   static-mutable    namespace-scope / static / thread_local mutable state
//                     (process-global state breaks run-to-run determinism
//                     and the multi-tenant service's isolation story)
//   unseeded-rng      an Rng constructed with no seed expression; every
//                     generator must flow from an explicit seed
//
// Suppression grammar is shared with ppg_lint (tools/ppg_lint/suppress.hpp):
//   // ppg-lint: allow(static-mutable): rationale
// Each tool applies only the rule ids it owns, so directives for either
// tool can sit side by side in one file.
//
// The scanner is a heuristic, not a compiler frontend: it tracks brace
// scopes over ppg_lint's comment/string-blanked code channel and classifies
// each scope (namespace / class / function / initializer) from the text
// introducing its '{'. That is enough to tell a member declaration from a
// method body from a brace initializer in this codebase's idiom; it is not
// enough for arbitrary C++, which is why findings are suppressible with a
// rationale.
#pragma once

#include <string>
#include <vector>

#include "include_graph.hpp"
#include "rules.hpp"  // tools/ppg_lint

namespace ppg::analyze {

/// The analyzer's rule registry (--list-rules, the docs table, and the
/// registry<->fixture check in tests/test_ppg_analyze.cpp).
const std::vector<lint::RuleDesc>& all_rules();

/// Per-file rules (everything except the two layer-* graph rules), before
/// suppression filtering. Exemptions (RuleDesc::exempt_suffixes) apply.
std::vector<lint::Finding> run_file_rules_raw(const lint::ScannedFile& file);

/// Per-file rules after suppression filtering, sorted by (line, rule) —
/// what the fixture trios drive.
std::vector<lint::Finding> run_file_rules(const lint::ScannedFile& file);

/// The whole pipeline over an in-memory source set: per-file rules plus
/// include-graph layering, suppression-filtered, sorted by (file, line,
/// rule). Paths are root-relative (first component = layer). This is the
/// function the CLI wraps with a directory walk, and the one the synthetic
/// graph tests call directly.
std::vector<FileFinding> analyze_source_set(
    const std::vector<SourceText>& files, const LayerSpec& spec);

}  // namespace ppg::analyze
