// Project-invariant rules for ppg_lint.
//
// Each rule guards an invariant the compiler cannot check but every result
// table depends on (see DESIGN.md §8):
//
//   banned-random           all randomness flows through util/rng.hpp
//   wall-clock              no wall-clock time sources anywhere
//   unordered-iter          no range-for over unordered containers
//                           (unspecified order must never feed output)
//   raw-throw               library code throws ppg::Error, not bare std::
//   abort-exit              library code never aborts outside PPG_CHECK
//   io-sink                 library code never prints (stdout/stderr are
//                           owned by benches, examples, and PPG_CHECK)
//   temp-path               tests never concatenate a fixed name onto
//                           testing::TempDir(): per-case ctest processes
//                           collide under -j (use test::unique_temp_path)
//   pragma-once             every header opens with #pragma once
//   using-namespace-header  no `using namespace` in headers
//   service-io              src/service/ never reads files or stdin; tenant
//                           workloads enter as TraceSource objects or spec
//                           strings parsed by the trace layer
//   service-catch-all       containment layers (src/service/, src/core/)
//                           never catch (...) or catch (std::exception&):
//                           both drop the structured ppg::Error payload
//                           that quarantine outcomes are built from
//
// Suppressions (grammar shared with ppg_analyze; see suppress.hpp):
//   // ppg-lint: allow(rule-a, rule-b)      this line or the next line
//   // ppg-lint: allow-file(rule-a)         whole file
// Anything after the closing paren is free-text rationale and is ignored,
// so sites can explain themselves:
//   // ppg-lint: allow(rule-a): drain is sorted two lines below
#pragma once

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "scan.hpp"

namespace ppg::lint {

/// Which part of the repo a file belongs to. Library code (src/) carries
/// the error/IO discipline; benches, examples, and tools own the process
/// boundary and may print and throw; tests sit in between.
enum class Realm { kLibrary, kApp, kTest };

struct FileInfo {
  Realm realm = Realm::kApp;
  bool is_header = false;
  /// True for files under src/service/: the admission surface must stay a
  /// pure function of its arguments, so input I/O is additionally banned.
  bool service = false;
  /// True for the fault-containment layers (src/service/ and src/core/):
  /// exception handlers there must catch PpgException — a catch (...) or
  /// catch (std::exception&) discards the structured ppg::Error payload
  /// that quarantine outcomes and chaos-gate assertions depend on.
  bool containment = false;
};

struct Finding {
  std::string rule;
  std::size_t line = 0;  ///< 1-based.
  std::string message;
};

/// Static description of one rule, for --list-rules and the docs.
struct RuleDesc {
  const char* id;
  const char* summary;
  /// Path suffixes of designated-exception files (e.g. util/rng.hpp is the
  /// one place allowed to implement randomness).
  std::vector<const char*> exempt_suffixes;
};

const std::vector<RuleDesc>& all_rules();

/// True when `path` ends with one of the rule's designated-exception
/// suffixes (matched at a path-component boundary).
bool rule_exempts_path(const RuleDesc& rule, const std::string& path);

/// Runs every applicable rule over `file` and returns unsuppressed findings
/// sorted by line. `paired_header`, when non-null, is the same-stem .hpp of
/// a .cpp under lint: member declarations live there, so unordered-iter
/// needs its declarations in scope.
std::vector<Finding> run_rules(const ScannedFile& file, const FileInfo& info,
                               const ScannedFile* paired_header);

/// Same as run_rules but before suppression filtering — the input that
/// --prune-suppressions audits directives against.
std::vector<Finding> run_rules_raw(const ScannedFile& file,
                                   const FileInfo& info,
                                   const ScannedFile* paired_header);

struct Suppressions;  // suppress.hpp

/// Filters raw findings through parsed suppressions and sorts by
/// (line, rule) — the shared tail of both tools' rule runners.
std::vector<Finding> apply_suppressions(std::vector<Finding> raw,
                                        const Suppressions& sup);

/// A suppression directive entry whose rule never fires in its coverage
/// window — deleting it would change nothing, so it must go.
struct StaleSuppression {
  std::size_t line = 0;  ///< 1-based line of the directive comment.
  std::string rule;
  bool file_wide = false;
};

/// Audits the file's directives against pre-suppression findings. Rule ids
/// not in `known_rules` are skipped (they belong to the other tool).
std::vector<StaleSuppression> find_stale_suppressions(
    const ScannedFile& file, const std::vector<Finding>& raw_findings,
    const std::set<std::string>& known_rules);

}  // namespace ppg::lint
