#include "analyze.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <regex>
#include <utility>

#include "suppress.hpp"  // tools/ppg_lint

namespace ppg::analyze {

using lint::Finding;
using lint::RuleDesc;
using lint::ScannedFile;

const std::vector<RuleDesc>& all_rules() {
  static const std::vector<RuleDesc> kRules = {
      {"layer-upward",
       "include edge not allowed by the declared layer DAG "
       "(tools/ppg_analyze/layers.txt)",
       {}},
      {"layer-cycle", "cycle in the file-level include graph", {}},
      {"guard-annotation",
       "mutable member of a mutex-holding class lacks a PPG_GUARDED_BY / "
       "PPG_SHARDED_BY / PPG_CALLER_SYNCHRONIZED annotation",
       {}},
      {"pool-shared-state",
       "file fans out via parallel_for_index but declares no shared-state "
       "annotation",
       // util/thread_pool itself defines the fan-out primitive.
       {"util/thread_pool.hpp", "util/thread_pool.cpp"}},
      {"static-mutable",
       "namespace-scope / static / thread_local mutable state (breaks "
       "run-to-run determinism)",
       {}},
      {"unseeded-rng",
       "Rng constructed without an explicit seed expression",
       // The generator's own definition (deleted default ctor etc.).
       {"util/rng.hpp"}},
  };
  return kRules;
}

namespace {

// ---------------------------------------------------------------------------
// Small text helpers (code channel only — strings/comments already blanked).

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool has_word(const std::string& text, const char* word) {
  const std::size_t n = std::char_traits<char>::length(word);
  std::size_t pos = 0;
  while ((pos = text.find(word, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !is_ident_char(text[pos - 1]);
    const bool right_ok =
        pos + n >= text.size() || !is_ident_char(text[pos + n]);
    if (left_ok && right_ok) return true;
    pos += 1;
  }
  return false;
}

std::string first_word(const std::string& text) {
  std::size_t b = 0;
  while (b < text.size() && !is_ident_char(text[b])) ++b;
  std::size_t e = b;
  while (e < text.size() && is_ident_char(text[e])) ++e;
  return text.substr(b, e - b);
}

std::string last_identifier(const std::string& text) {
  std::size_t e = text.size();
  while (e > 0 && !is_ident_char(text[e - 1])) --e;
  std::size_t b = e;
  while (b > 0 && is_ident_char(text[b - 1])) --b;
  return text.substr(b, e - b);
}

/// Offset of the first assignment '=' at paren/bracket depth 0, or npos.
/// Compound (+=, ==, <=, ...) and two-char comparison forms are excluded.
std::size_t top_level_assign(const std::string& text) {
  int depth = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '(' || c == '[') ++depth;
    if (c == ')' || c == ']') --depth;
    if (c != '=' || depth != 0) continue;
    const char prev = i > 0 ? text[i - 1] : '\0';
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    if (next == '=') {
      ++i;  // ==: skip both.
      continue;
    }
    if (prev == '=' || prev == '!' || prev == '<' || prev == '>' ||
        prev == '+' || prev == '-' || prev == '*' || prev == '/' ||
        prev == '%' || prev == '&' || prev == '|' || prev == '^')
      continue;
    return i;
  }
  return std::string::npos;
}

/// The declaration part of a statement: everything left of the first
/// top-level '=' (or of the first '{' placeholder a brace-initializer
/// left behind).
std::string decl_lhs(const std::string& text) {
  std::size_t cut = top_level_assign(text);
  const std::size_t brace = text.find('{');
  if (brace != std::string::npos && brace < cut) cut = brace;
  return cut == std::string::npos ? text : text.substr(0, cut);
}

bool lhs_is_const(const std::string& lhs) {
  return has_word(lhs, "const") || has_word(lhs, "constexpr");
}

const std::regex& mutex_decl_re() {
  // std::mutex family, or the project's annotated ppg::Mutex wrapper
  // (word-bounded, so MutexLock members do not count as mutexes).
  static const std::regex re(
      R"(\b(?:std\s*::\s*)?(?:mutex|recursive_mutex|shared_mutex|timed_mutex|shared_timed_mutex)\b|\b(?:ppg\s*::\s*)?Mutex\b)");
  return re;
}

const std::regex& cv_decl_re() {
  static const std::regex re(R"(\bcondition_variable(?:_any)?\b)");
  return re;
}

const std::regex& annotation_re() {
  static const std::regex re(
      R"(\bPPG_(?:GUARDED_BY|PT_GUARDED_BY|SHARDED_BY|CALLER_SYNCHRONIZED|NO_THREAD_SAFETY_ANALYSIS|ACQUIRE|RELEASE|TRY_ACQUIRE|REQUIRES|EXCLUDES|CAPABILITY|SCOPED_CAPABILITY|ASSERT_CAPABILITY|RETURN_CAPABILITY)\b)");
  return re;
}

// ---------------------------------------------------------------------------
// Scope scanner: brace matching over the code channel, with preprocessor
// lines blanked so macro definitions cannot unbalance the walk.

enum class ScopeKind { kNamespace, kClass, kFunction, kInit, kOther };

struct Member {
  std::string text;
  std::size_t start = 0;  ///< Offset into joined_code.
};

struct Scope {
  ScopeKind kind = ScopeKind::kNamespace;
  std::string buffer;  ///< Current statement, whitespace-collapsed.
  std::size_t stmt_start = std::string::npos;
  bool has_mutex = false;       ///< Class scopes only.
  std::vector<Member> members;  ///< Class scopes only.
};

/// joined_code with preprocessor directives (and their backslash
/// continuations) blanked to spaces — same length, offsets preserved.
std::string blank_preprocessor(const std::string& code) {
  std::string out = code;
  std::size_t pos = 0;
  bool continuation = false;
  while (pos <= out.size()) {
    std::size_t eol = out.find('\n', pos);
    if (eol == std::string::npos) eol = out.size();
    bool blank = continuation;
    if (!blank) {
      std::size_t first = pos;
      while (first < eol &&
             (out[first] == ' ' || out[first] == '\t'))
        ++first;
      blank = first < eol && out[first] == '#';
    }
    if (blank) {
      continuation = eol > pos && out[eol - 1] == '\\';
      for (std::size_t i = pos; i < eol; ++i) out[i] = ' ';
    } else {
      continuation = false;
    }
    if (eol == out.size()) break;
    pos = eol + 1;
  }
  return out;
}

ScopeKind classify_brace(const Scope& parent) {
  if (parent.kind == ScopeKind::kInit) return ScopeKind::kInit;
  const std::string& t = parent.buffer;
  // A brace while the introducer's parens are still open sits inside an
  // argument/parameter list: a default-argument initializer or a lambda
  // body. Opaque either way — a lambda is a local value, not a scope whose
  // declarations outlive the statement.
  int parens = 0;
  for (const char c : t) {
    if (c == '(') ++parens;
    if (c == ')') --parens;
  }
  if (parens > 0) return ScopeKind::kInit;
  if (has_word(t, "namespace")) return ScopeKind::kNamespace;
  if (has_word(t, "class") || has_word(t, "struct") ||
      has_word(t, "union") || has_word(t, "enum"))
    return ScopeKind::kClass;
  if (top_level_assign(t) != std::string::npos) return ScopeKind::kInit;
  if (t.find('(') != std::string::npos) return ScopeKind::kFunction;
  // A brace with a plain-declaration introducer at class/namespace scope is
  // a brace initializer (std::atomic<int> g{0}); in a function it is a
  // bare block.
  if (parent.kind == ScopeKind::kClass || parent.kind == ScopeKind::kNamespace)
    return ScopeKind::kInit;
  return ScopeKind::kOther;
}

struct ScopeScan {
  const ScannedFile& file;
  std::vector<Finding>& out;
  bool want_static_mutable;
  bool want_guard_annotation;

  bool skip_decl_keyword(const std::string& text) const {
    static const char* kSkip[] = {"using",  "typedef",  "friend",
                                  "static_assert", "extern", "template",
                                  "operator"};
    const std::string word = first_word(text);
    for (const char* k : kSkip)
      if (word == k) return true;
    return has_word(text, "operator");
  }

  void flag(const char* rule, std::size_t offset, std::string message) const {
    out.push_back(Finding{rule, file.line_of_offset(offset),
                          std::move(message)});
  }

  void eval_namespace_stmt(const std::string& text, std::size_t start) const {
    if (!want_static_mutable) return;
    if (skip_decl_keyword(text) || has_word(text, "namespace")) return;
    const std::string word = first_word(text);
    if (word == "class" || word == "struct" || word == "union" ||
        word == "enum")
      return;  // Forward declarations.
    const std::string lhs = decl_lhs(text);
    if (lhs.find('(') != std::string::npos) return;  // Function declaration.
    if (lhs_is_const(lhs)) return;
    const std::string name = last_identifier(lhs);
    if (name.empty()) return;
    flag("static-mutable", start,
         "namespace-scope mutable state '" + name +
             "' — process-global state breaks run-to-run determinism; make "
             "it const/constexpr, pass it explicitly, or suppress with a "
             "rationale");
  }

  void eval_block_stmt(const std::string& text, std::size_t start) const {
    if (!want_static_mutable) return;
    const std::string word = first_word(text);
    if (word != "static" && word != "thread_local") return;
    const std::string lhs = decl_lhs(text);
    if (lhs.find('(') != std::string::npos) return;  // Local fn declaration.
    if (lhs_is_const(lhs)) return;
    const std::string name = last_identifier(lhs);
    if (name.empty()) return;
    flag("static-mutable", start,
         "function-local " + word + " mutable state '" + name +
             "' persists across calls — hidden state breaks determinism");
  }

  void eval_class_stmt(Scope& scope, const std::string& text,
                       std::size_t start) const {
    if (std::regex_search(text, mutex_decl_re())) scope.has_mutex = true;
    const std::string word = first_word(text);
    if (word == "static" || word == "thread_local") {
      if (want_static_mutable) {
        const std::string lhs = decl_lhs(text);
        if (lhs.find('(') == std::string::npos && !lhs_is_const(lhs)) {
          const std::string name = last_identifier(lhs);
          if (!name.empty())
            flag("static-mutable", start,
                 "class-static mutable state '" + name +
                     "' is process-global — breaks determinism and tenant "
                     "isolation");
        }
      }
      return;  // Statics are static-mutable's concern, not a guard's.
    }
    scope.members.push_back(Member{text, start});
  }

  void eval_guard_members(const Scope& scope) const {
    if (!want_guard_annotation || !scope.has_mutex) return;
    for (const Member& m : scope.members) {
      if (std::regex_search(m.text, mutex_decl_re())) continue;
      if (std::regex_search(m.text, cv_decl_re())) continue;
      if (std::regex_search(m.text, annotation_re())) continue;
      if (skip_decl_keyword(m.text)) continue;
      const std::string word = first_word(m.text);
      if (word == "class" || word == "struct" || word == "union" ||
          word == "enum" || word == "public" || word == "private" ||
          word == "protected")
        continue;
      const std::string lhs = decl_lhs(m.text);
      if (lhs.find('(') != std::string::npos) continue;  // Method decl.
      if (lhs_is_const(lhs)) continue;
      const std::string name = last_identifier(lhs);
      if (name.empty()) continue;
      flag("guard-annotation", m.start,
           "member '" + name +
               "' of a mutex-holding class has no thread-safety annotation "
               "— add PPG_GUARDED_BY(<mutex>) (or PPG_SHARDED_BY / "
               "PPG_CALLER_SYNCHRONIZED with the discipline in a comment), "
               "or suppress with a rationale");
    }
  }

  void run() const {
    const std::string code = blank_preprocessor(file.joined_code());
    std::vector<Scope> scopes(1);
    scopes.front().kind = ScopeKind::kNamespace;

    const auto finalize = [&](Scope& cur) {
      if (cur.buffer.empty()) return;
      std::string text = std::move(cur.buffer);
      const std::size_t start = cur.stmt_start;
      cur.buffer.clear();
      cur.stmt_start = std::string::npos;
      while (!text.empty() && text.back() == ' ') text.pop_back();
      if (text.empty()) return;
      switch (cur.kind) {
        case ScopeKind::kNamespace:
          eval_namespace_stmt(text, start);
          break;
        case ScopeKind::kClass:
          eval_class_stmt(cur, text, start);
          break;
        case ScopeKind::kFunction:
        case ScopeKind::kOther:
          eval_block_stmt(text, start);
          break;
        case ScopeKind::kInit:
          break;
      }
    };

    for (std::size_t i = 0; i < code.size(); ++i) {
      const char c = code[i];
      Scope& cur = scopes.back();
      if (c == '{') {
        Scope child;
        child.kind = classify_brace(cur);
        scopes.push_back(std::move(child));
        continue;
      }
      if (c == '}') {
        if (scopes.size() == 1) continue;  // Unbalanced; keep walking.
        Scope closed = std::move(scopes.back());
        scopes.pop_back();
        if (closed.kind == ScopeKind::kClass) eval_guard_members(closed);
        Scope& parent = scopes.back();
        if (parent.kind == ScopeKind::kInit) continue;
        if (closed.kind == ScopeKind::kInit) {
          // The initializer is part of the parent's statement: leave a
          // placeholder so decl_lhs() can cut at it.
          parent.buffer += "{}";
        } else {
          // A definition body consumed the pending introducer.
          parent.buffer.clear();
          parent.stmt_start = std::string::npos;
        }
        continue;
      }
      if (cur.kind == ScopeKind::kInit) continue;  // Opaque contents.
      if (c == ';') {
        finalize(cur);
        continue;
      }
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        if (!cur.buffer.empty() && cur.buffer.back() != ' ')
          cur.buffer += ' ';
        continue;
      }
      if (cur.buffer.empty()) cur.stmt_start = i;
      cur.buffer += c;
      // Access specifiers are not statements: drop `public:` etc. so the
      // next member's statement (and line anchor) starts at the member.
      if (c == ':' && cur.kind == ScopeKind::kClass) {
        std::string squashed;
        for (const char b : cur.buffer)
          if (b != ' ') squashed += b;
        if (squashed == "public:" || squashed == "private:" ||
            squashed == "protected:") {
          cur.buffer.clear();
          cur.stmt_start = std::string::npos;
        }
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Pattern rules on the (unblanked) code channel.

void run_unseeded_rng(const ScannedFile& file, std::vector<Finding>& out) {
  // Only default-construction forms: `Rng rng_;` members and `Rng r(seed)`
  // flow from explicit seeds and are fine.
  static const std::regex kForms(
      R"(\bRng\s*\(\s*\)|\bRng\s*\{\s*\}|\bnew\s+(?:ppg\s*::\s*)?Rng\s*(?:;|\[))");
  const std::string& code = file.joined_code();
  for (auto it = std::sregex_iterator(code.begin(), code.end(), kForms);
       it != std::sregex_iterator(); ++it) {
    out.push_back(Finding{
        "unseeded-rng",
        file.line_of_offset(static_cast<std::size_t>(it->position(0))),
        "Rng constructed without a seed — every generator must derive from "
        "an explicit seed expression (cell_seed, Rng::fork, or a config "
        "seed)"});
  }
}

void run_pool_shared_state(const ScannedFile& file,
                           std::vector<Finding>& out) {
  static const std::regex kFanOut(R"(\bparallel_for_index\s*\()");
  static const std::regex kSharedAnno(
      R"(\bPPG_(?:GUARDED_BY|SHARDED_BY|CALLER_SYNCHRONIZED)\b)");
  const std::string& code = file.joined_code();
  std::smatch m;
  if (!std::regex_search(code, m, kFanOut)) return;
  if (std::regex_search(code, kSharedAnno)) return;
  out.push_back(Finding{
      "pool-shared-state",
      file.line_of_offset(static_cast<std::size_t>(m.position(0))),
      "file fans work out via parallel_for_index but declares no "
      "shared-state annotation — mark the result slots "
      "PPG_SHARDED_BY(index), guard shared state with PPG_GUARDED_BY, or "
      "document the discipline with PPG_CALLER_SYNCHRONIZED"});
}

const RuleDesc& rule_by_id(const char* id) {
  for (const RuleDesc& rule : all_rules())
    if (std::string(rule.id) == id) return rule;
  return all_rules().front();  // Unreachable for valid ids.
}

bool exempt(const char* rule_id, const std::string& path) {
  return lint::rule_exempts_path(rule_by_id(rule_id), path);
}

}  // namespace

std::vector<Finding> run_file_rules_raw(const ScannedFile& file) {
  std::vector<Finding> out;
  const std::string& path = file.path();
  ScopeScan scan{file, out, !exempt("static-mutable", path),
                 !exempt("guard-annotation", path)};
  if (scan.want_static_mutable || scan.want_guard_annotation) scan.run();
  if (!exempt("unseeded-rng", path)) run_unseeded_rng(file, out);
  if (!exempt("pool-shared-state", path)) run_pool_shared_state(file, out);
  return out;
}

std::vector<Finding> run_file_rules(const ScannedFile& file) {
  return lint::apply_suppressions(run_file_rules_raw(file),
                                  lint::parse_suppressions(file));
}

std::vector<FileFinding> analyze_source_set(
    const std::vector<SourceText>& files, const LayerSpec& spec) {
  // Per-file raw findings, keyed by path.
  std::map<std::string, std::vector<Finding>> raw;
  std::map<std::string, const SourceText*> by_path;
  for (const SourceText& f : files) {
    by_path[f.path] = &f;
    raw[f.path];  // Ensure an entry even when clean (suppression pass).
  }
  for (const SourceText& f : files) {
    ScannedFile scanned(f.path, f.text);
    auto findings = run_file_rules_raw(scanned);
    auto& slot = raw[f.path];
    slot.insert(slot.end(), findings.begin(), findings.end());
  }
  for (FileFinding& ff : check_layering(files, spec))
    raw[ff.file].push_back(std::move(ff.finding));

  std::vector<FileFinding> out;
  for (auto& [path, findings] : raw) {
    if (findings.empty()) continue;
    ScannedFile scanned(path, by_path.at(path)->text);
    for (Finding& f : lint::apply_suppressions(
             std::move(findings), lint::parse_suppressions(scanned)))
      out.push_back(FileFinding{path, std::move(f)});
  }
  return out;  // Map order: already sorted by file, then (line, rule).
}

}  // namespace ppg::analyze
