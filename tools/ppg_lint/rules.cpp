#include "rules.hpp"

#include <algorithm>
#include <cctype>
#include <regex>
#include <set>
#include <unordered_set>

#include "suppress.hpp"

namespace ppg::lint {
namespace {

// ---------------------------------------------------------------------------
// Regex-driven rules

void match_all(const ScannedFile& file, const std::regex& pattern,
               const char* rule, const std::string& message,
               std::vector<Finding>& out) {
  const std::string& code = file.joined_code();
  auto begin = std::sregex_iterator(code.begin(), code.end(), pattern);
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    const auto offset = static_cast<std::size_t>(it->position());
    out.push_back(Finding{rule, file.line_of_offset(offset), message});
  }
}

void check_banned_random(const ScannedFile& file, std::vector<Finding>& out) {
  static const std::regex kCalls(R"(\b(?:std\s*::\s*)?(?:rand|srand)\s*\()");
  static const std::regex kEngines(
      R"(\b(?:std\s*::\s*)?(?:random_device|mt19937(?:_64)?|default_random_engine|minstd_rand0?|knuth_b|ranlux(?:24|48)(?:_base)?|random_shuffle)\b)");
  static const std::regex kInclude(R"(#\s*include\s*<random>)");
  const std::string msg =
      "randomness outside util/rng.hpp; all draws must flow through ppg::Rng "
      "(explicit seed, bit-reproducible)";
  match_all(file, kCalls, "banned-random", msg, out);
  match_all(file, kEngines, "banned-random", msg, out);
  match_all(file, kInclude, "banned-random",
            "direct <random> include; use util/rng.hpp", out);
}

void check_wall_clock(const ScannedFile& file, std::vector<Finding>& out) {
  static const std::regex kCalls(
      R"(\b(?:std\s*::\s*)?(?:time|clock|gettimeofday|localtime|gmtime|mktime)\s*\()");
  static const std::regex kTypes(R"(\bsystem_clock\b)");
  static const std::regex kInclude(
      R"(#\s*include\s*<(?:ctime|time\.h|sys/time\.h)>)");
  const std::string msg =
      "wall-clock time source; results must be a pure function of the seed "
      "(steady_clock is the only sanctioned clock, for elapsed-time reporting)";
  match_all(file, kCalls, "wall-clock", msg, out);
  match_all(file, kTypes, "wall-clock", msg, out);
  match_all(file, kInclude, "wall-clock", msg, out);
}

void check_raw_throw(const ScannedFile& file, std::vector<Finding>& out) {
  static const std::regex kThrow(R"(\bthrow\s+(?:::\s*)?std\s*::\s*(\w+))");
  const std::string& code = file.joined_code();
  auto begin = std::sregex_iterator(code.begin(), code.end(), kThrow);
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    out.push_back(Finding{
        "raw-throw", file.line_of_offset(static_cast<std::size_t>(it->position())),
        "bare `throw std::" + (*it)[1].str() +
            "` in library code; use ppg::throw_error / PPG_CHECK so the "
            "error carries structured context (code, proc, time, offset)"});
  }
}

void check_abort_exit(const ScannedFile& file, std::vector<Finding>& out) {
  static const std::regex kCalls(
      R"(\b(?:std\s*::\s*)?(?:abort|exit|_Exit|quick_exit|terminate)\s*\()");
  match_all(file, kCalls, "abort-exit",
            "process kill in library code; invariant failures go through "
            "PPG_CHECK, recoverable failures through ppg::Error",
            out);
}

void check_io_sink(const ScannedFile& file, std::vector<Finding>& out) {
  static const std::regex kStreams(
      R"(\b(?:std\s*::\s*)?(?:cout|cerr|clog)\b)");
  static const std::regex kCstdio(
      R"(\b(?:std\s*::\s*)?(?:printf|fprintf|puts|fputs|putchar)\s*\()");
  const std::string msg =
      "console output in library code; stdout/stderr belong to benches, "
      "examples, and the PPG_CHECK failure path — return data, don't print";
  match_all(file, kStreams, "io-sink", msg, out);
  match_all(file, kCstdio, "io-sink", msg, out);
}

void check_raw_file_write(const ScannedFile& file, std::vector<Finding>& out) {
  static const std::regex kOfstream(
      R"(\bstd\s*::\s*(?:ofstream|fstream)\b)");
  static const std::regex kFopen(R"(\b(?:std\s*::\s*)?fopen\s*\()");
  const std::string msg =
      "direct file write to a final path in library code; a crash mid-write "
      "leaves a torn file — route through util/atomic_file "
      "(write-temp + fsync + rename) or a designated streaming sink";
  match_all(file, kOfstream, "raw-file-write", msg, out);
  match_all(file, kFopen, "raw-file-write", msg, out);
}

void check_raw_getenv(const ScannedFile& file, std::vector<Finding>& out) {
  static const std::regex kCalls(
      R"(\b(?:std\s*::\s*)?(?:getenv|secure_getenv)\s*\()");
  match_all(file, kCalls, "raw-getenv",
            "raw environment read in library code; results must be a pure "
            "function of flags and seeds — take the value as a parsed flag "
            "so it is validated and visible on the command line",
            out);
}

void check_raw_thread(const ScannedFile& file, std::vector<Finding>& out) {
  static const std::regex kCalls(
      R"(\bstd\s*::\s*(?:thread|jthread|async)\b)");
  match_all(file, kCalls, "raw-thread",
            "bare std::thread/std::async in library code; ad-hoc threads "
            "dodge the determinism contract (slot-indexed output, "
            "first-error capture) — run on util/thread_pool "
            "(parallel_for_index for sweep cells, ThreadPool::run_batch for "
            "intra-run fan-out)",
            out);
}

void check_service_io(const ScannedFile& file, std::vector<Finding>& out) {
  static const std::regex kStreams(R"(\bstd\s*::\s*(?:ifstream|fstream)\b)");
  static const std::regex kCin(R"(\bstd\s*::\s*cin\b)");
  static const std::regex kCstdio(
      R"(\b(?:std\s*::\s*)?(?:scanf|fscanf|sscanf|vscanf|fread|fgets|getchar|gets)\s*\()");
  const std::string msg =
      "input I/O in src/service/; tenant workloads enter the service as "
      "TraceSource objects or spec strings (parsed by the trace layer) — the "
      "admission surface must stay a pure function of its arguments, never "
      "read files or stdin itself";
  match_all(file, kStreams, "service-io", msg, out);
  match_all(file, kCin, "service-io", msg, out);
  match_all(file, kCstdio, "service-io", msg, out);
}

void check_service_catch_all(const ScannedFile& file,
                             std::vector<Finding>& out) {
  static const std::regex kCatchAll(R"(\bcatch\s*\(\s*\.\.\.\s*\))");
  static const std::regex kCatchStdException(
      R"(\bcatch\s*\(\s*(?:const\s+)?std\s*::\s*exception\b)");
  const std::string msg =
      "type-erasing catch in a containment layer; catch (const "
      "PpgException&) instead — catch (...) / catch (std::exception&) drop "
      "the structured ppg::Error (code, proc, time, offset) that quarantine "
      "outcomes and the chaos gate are built from";
  match_all(file, kCatchAll, "service-catch-all", msg, out);
  match_all(file, kCatchStdException, "service-catch-all", msg, out);
}

void check_temp_path(const ScannedFile& file, std::vector<Finding>& out) {
  static const std::regex kConcat(R"(\bTempDir\s*\(\s*\)\s*\+)");
  match_all(file, kConcat, "temp-path",
            "fixed file name under testing::TempDir(); ctest runs every test "
            "case as its own process, so `ctest -j` cases sharing the name "
            "collide — use test::unique_temp_path (tests/test_helpers.hpp)",
            out);
}

void check_pragma_once(const ScannedFile& file, std::vector<Finding>& out) {
  static const std::regex kPragma(R"(^\s*#\s*pragma\s+once\s*$)");
  for (std::size_t i = 0; i < file.line_count(); ++i) {
    const std::string& code = file.lines()[i].code;
    if (code.find_first_not_of(" \t\r") == std::string::npos) continue;
    if (!std::regex_match(code, kPragma)) {
      out.push_back(Finding{"pragma-once", i + 1,
                            "header's first non-comment line must be "
                            "`#pragma once`"});
    }
    return;
  }
  out.push_back(
      Finding{"pragma-once", 1, "header is empty or lacks `#pragma once`"});
}

void check_using_namespace(const ScannedFile& file,
                           std::vector<Finding>& out) {
  static const std::regex kUsing(R"(\busing\s+namespace\b)");
  match_all(file, kUsing, "using-namespace-header",
            "`using namespace` in a header leaks into every includer; "
            "qualify names or alias instead",
            out);
}

// ---------------------------------------------------------------------------
// unordered-iter: range-for over a name declared as std::unordered_{map,set}.
//
// Heuristic, single-translation-unit scope by design: declarations are
// collected from the file itself plus its same-stem header. That covers the
// real hazard (members and locals drained into output) without needing a
// full type system; cross-file false negatives are accepted, false positives
// are suppressible with a rationale.

void collect_unordered_names(const ScannedFile& file,
                             std::unordered_set<std::string>& names) {
  static const std::regex kDecl(R"(\bstd\s*::\s*unordered_(?:map|set)\s*<)");
  const std::string& code = file.joined_code();
  auto begin = std::sregex_iterator(code.begin(), code.end(), kDecl);
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    // Skip the balanced template argument list.
    std::size_t pos = static_cast<std::size_t>(it->position()) +
                      static_cast<std::size_t>(it->length());
    int depth = 1;
    while (pos < code.size() && depth > 0) {
      if (code[pos] == '<') ++depth;
      if (code[pos] == '>') --depth;
      ++pos;
    }
    // Accept `> name`, `>& name`, `>* name`, `> name;`, `> name =`, etc.
    while (pos < code.size() &&
           (std::isspace(static_cast<unsigned char>(code[pos])) != 0 ||
            code[pos] == '&' || code[pos] == '*')) {
      ++pos;
    }
    std::string name;
    while (pos < code.size() &&
           (std::isalnum(static_cast<unsigned char>(code[pos])) != 0 ||
            code[pos] == '_')) {
      name += code[pos];
      ++pos;
    }
    if (!name.empty()) names.insert(name);
  }
}

void check_unordered_iter(const ScannedFile& file,
                          const ScannedFile* paired_header,
                          std::vector<Finding>& out) {
  std::unordered_set<std::string> names;
  collect_unordered_names(file, names);
  if (paired_header != nullptr) collect_unordered_names(*paired_header, names);
  if (names.empty()) return;

  static const std::regex kFor(R"(\bfor\s*\()");
  const std::string& code = file.joined_code();
  auto begin = std::sregex_iterator(code.begin(), code.end(), kFor);
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    // Scan the balanced for-header and find a top-level range `:` (skip
    // `::`, skip anything nested in parens/brackets/angles).
    std::size_t pos = static_cast<std::size_t>(it->position()) +
                      static_cast<std::size_t>(it->length());
    int paren = 1;
    int square = 0;
    std::size_t colon = std::string::npos;
    std::size_t end = pos;
    while (end < code.size() && paren > 0) {
      const char c = code[end];
      if (c == '(') ++paren;
      if (c == ')') --paren;
      if (c == '[') ++square;
      if (c == ']') --square;
      if (c == ';') break;  // Classic three-clause for loop: not range-for.
      if (c == ':' && paren == 1 && square == 0 && colon == std::string::npos) {
        const bool scope = (end + 1 < code.size() && code[end + 1] == ':') ||
                           (end > 0 && code[end - 1] == ':');
        if (!scope) colon = end;
      }
      ++end;
    }
    if (colon == std::string::npos) continue;
    const std::string range_expr = code.substr(colon + 1, end - colon - 2);

    static const std::regex kIdent(R"([A-Za-z_]\w*)");
    auto ids = std::sregex_iterator(range_expr.begin(), range_expr.end(),
                                    kIdent);
    for (auto id = ids; id != std::sregex_iterator(); ++id) {
      if (names.count(id->str()) != 0) {
        out.push_back(Finding{
            "unordered-iter", file.line_of_offset(colon),
            "range-for over unordered container '" + id->str() +
                "'; iteration order is unspecified and must never feed "
                "output, tables, or trace emission — drain into a sorted "
                "vector (then suppress with a rationale if the drain is "
                "sorted immediately)"});
        break;
      }
    }
  }
}

}  // namespace

const std::vector<RuleDesc>& all_rules() {
  static const std::vector<RuleDesc> kRules = {
      {"banned-random",
       "std::rand/srand/random_device/mt19937/<random> outside util/rng.hpp",
       {"util/rng.hpp"}},
      {"wall-clock",
       "time()/clock()/system_clock/<ctime>: results must not depend on "
       "real time",
       {}},
      {"unordered-iter",
       "range-for over std::unordered_{map,set}: unspecified order must not "
       "feed output",
       {}},
      {"raw-throw",
       "bare `throw std::...` in src/: route through ppg::throw_error / "
       "PPG_CHECK",
       {"util/error.hpp", "util/error.cpp"}},
      {"abort-exit",
       "abort/exit/terminate in src/: PPG_CHECK is the only sanctioned "
       "escalation",
       {"util/assert.hpp"}},
      {"io-sink",
       "stdout/stderr output in src/: only benches/examples and PPG_CHECK "
       "print",
       {"util/assert.hpp"}},
      {"raw-file-write",
       "std::ofstream/fopen to a final path in src/: crash-torn files; use "
       "util/atomic_file or a designated streaming sink",
       {"util/atomic_file.cpp", "trace/trace_io.cpp"}},
      {"raw-getenv",
       "std::getenv in src/: environment reads bypass flag parsing and "
       "validation; take the value as a parsed flag",
       {}},
      {"raw-thread",
       "std::thread/std::async in src/: ad-hoc threads dodge the "
       "determinism contract; run on util/thread_pool",
       {"util/thread_pool.hpp", "util/thread_pool.cpp"}},
      {"service-io",
       "ifstream/cin/scanf/fread in src/service/: tenant input enters as a "
       "TraceSource or spec string, the service never reads files or stdin",
       {}},
      {"service-catch-all",
       "catch (...) / catch (std::exception&) in src/service/ or src/core/: "
       "type-erasing handlers drop the structured ppg::Error payload that "
       "quarantine outcomes carry; catch (const PpgException&)",
       {}},
      {"temp-path",
       "TempDir() + \"name\" in tests/: fixed temp names collide under "
       "ctest -j; use test::unique_temp_path",
       {"tests/test_helpers.hpp"}},
      {"pragma-once", "headers must open with #pragma once", {}},
      {"using-namespace-header", "no `using namespace` in headers", {}},
  };
  return kRules;
}

bool rule_exempts_path(const RuleDesc& rule, const std::string& path) {
  for (const char* suffix : rule.exempt_suffixes) {
    const std::string tail = std::string("/") + suffix;
    if (path == suffix ||
        (path.size() > tail.size() &&
         path.compare(path.size() - tail.size(), tail.size(), tail) == 0)) {
      return true;
    }
  }
  return false;
}

std::vector<Finding> run_rules_raw(const ScannedFile& file,
                                   const FileInfo& info,
                                   const ScannedFile* paired_header) {
  std::vector<Finding> raw;

  auto exempt = [&](const char* rule_id) {
    for (const RuleDesc& rule : all_rules()) {
      if (std::string(rule.id) == rule_id) {
        return rule_exempts_path(rule, file.path());
      }
    }
    return false;
  };

  if (!exempt("banned-random")) check_banned_random(file, raw);
  if (!exempt("wall-clock")) check_wall_clock(file, raw);
  check_unordered_iter(file, paired_header, raw);
  if (info.realm == Realm::kLibrary) {
    if (!exempt("raw-throw")) check_raw_throw(file, raw);
    if (!exempt("abort-exit")) check_abort_exit(file, raw);
    if (!exempt("io-sink")) check_io_sink(file, raw);
    if (!exempt("raw-file-write")) check_raw_file_write(file, raw);
    if (!exempt("raw-getenv")) check_raw_getenv(file, raw);
    if (!exempt("raw-thread")) check_raw_thread(file, raw);
  }
  if (info.realm == Realm::kTest && !exempt("temp-path"))
    check_temp_path(file, raw);
  if (info.service && !exempt("service-io")) check_service_io(file, raw);
  if (info.containment && !exempt("service-catch-all"))
    check_service_catch_all(file, raw);
  if (info.is_header) {
    check_pragma_once(file, raw);
    check_using_namespace(file, raw);
  }
  return raw;
}

std::vector<Finding> apply_suppressions(std::vector<Finding> raw,
                                        const Suppressions& sup) {
  std::vector<Finding> kept;
  for (Finding& finding : raw) {
    if (!sup.allows(finding.rule, finding.line)) {
      kept.push_back(std::move(finding));
    }
  }
  std::sort(kept.begin(), kept.end(), [](const Finding& a, const Finding& b) {
    return a.line != b.line ? a.line < b.line : a.rule < b.rule;
  });
  return kept;
}

std::vector<Finding> run_rules(const ScannedFile& file, const FileInfo& info,
                               const ScannedFile* paired_header) {
  return apply_suppressions(run_rules_raw(file, info, paired_header),
                            parse_suppressions(file));
}

std::vector<StaleSuppression> find_stale_suppressions(
    const ScannedFile& file, const std::vector<Finding>& raw_findings,
    const std::set<std::string>& known_rules) {
  const Suppressions sup = parse_suppressions(file);
  std::vector<StaleSuppression> stale;
  for (const SuppressionDirective& directive : sup.directives) {
    for (const std::string& rule : directive.rules) {
      // Only audit rule ids this tool owns: ppg_lint and ppg_analyze share
      // the directive grammar, so a file may legitimately carry allows for
      // the other tool's rules.
      if (known_rules.count(rule) == 0) continue;
      bool live = false;
      for (const Finding& finding : raw_findings) {
        if (finding.rule == rule &&
            Suppressions::directive_covers(directive, finding.line)) {
          live = true;
          break;
        }
      }
      if (!live) {
        stale.push_back(
            StaleSuppression{directive.line, rule, directive.file_wide});
      }
    }
  }
  return stale;
}

}  // namespace ppg::lint
