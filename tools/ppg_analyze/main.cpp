// ppg_analyze — architectural static analysis: include-graph layering and
// determinism taints. See
// analyze.hpp for the rule set and DESIGN.md §8 for the rationale.
//
// Usage:
//   ppg_analyze [--root <dir>] [--layers <file>] [--json <path>]
//               [--list-rules] [--quiet]
//
// --root (default: src) is walked recursively for .hpp/.cpp files; paths
// relative to it are the layer-graph node names (first component = layer).
// --layers defaults to tools/ppg_analyze/layers.txt resolved against the
// current directory, then against --root's parent; an unresolvable spec is
// an error, never a silent skip — a layering gate that cannot find its DAG
// has nothing to enforce.
//
// Exit status: 0 clean, 1 findings, 2 usage or I/O error.
#include <algorithm>
#include <fstream>
#include <filesystem>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analyze.hpp"
#include "report.hpp"  // tools/ppg_lint

namespace fs = std::filesystem;

namespace {

bool is_cpp_file(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".hpp" || ext == ".h" || ext == ".cpp" || ext == ".cc";
}

std::optional<std::string> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

int list_rules() {
  for (const ppg::lint::RuleDesc& rule : ppg::analyze::all_rules()) {
    std::cout << rule.id << "\n    " << rule.summary << "\n";
    if (!rule.exempt_suffixes.empty()) {
      std::cout << "    designated exceptions:";
      for (const char* suffix : rule.exempt_suffixes)
        std::cout << " " << suffix;
      std::cout << "\n";
    }
  }
  return 0;
}

struct Options {
  fs::path root = "src";
  fs::path layers;  ///< Empty: resolve the default locations.
  std::string json_path;
  bool quiet = false;
};

std::optional<fs::path> resolve_layers(const Options& options) {
  if (!options.layers.empty())
    return fs::exists(options.layers) ? std::optional(options.layers)
                                      : std::nullopt;
  const fs::path candidates[] = {
      fs::path("tools/ppg_analyze/layers.txt"),
      options.root.parent_path() / "tools/ppg_analyze/layers.txt",
  };
  for (const fs::path& candidate : candidates)
    if (fs::exists(candidate)) return candidate;
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-rules") return list_rules();
    if (arg == "--quiet") {
      options.quiet = true;
    } else if (arg == "--root" || arg == "--layers" || arg == "--json") {
      if (i + 1 >= argc) {
        std::cerr << "ppg_analyze: " << arg << " needs a value\n";
        return 2;
      }
      const std::string value = argv[++i];
      if (arg == "--root") options.root = value;
      if (arg == "--layers") options.layers = value;
      if (arg == "--json") options.json_path = value;
    } else {
      std::cerr << "ppg_analyze: unknown argument " << arg << "\n"
                << "usage: ppg_analyze [--root <dir>] [--layers <file>] "
                   "[--json <path>] [--list-rules] [--quiet]\n";
      return 2;
    }
  }

  if (!fs::is_directory(options.root)) {
    std::cerr << "ppg_analyze: --root is not a directory: "
              << options.root.string() << "\n";
    return 2;
  }
  const auto layers_path = resolve_layers(options);
  if (!layers_path) {
    std::cerr << "ppg_analyze: cannot find layers spec"
              << (options.layers.empty()
                      ? std::string(" (tools/ppg_analyze/layers.txt)")
                      : ": " + options.layers.string())
              << " — pass --layers explicitly\n";
    return 2;
  }

  ppg::analyze::LayerSpec spec;
  try {
    const auto layers_text = read_file(*layers_path);
    if (!layers_text) throw std::runtime_error("cannot read file");
    spec = ppg::analyze::LayerSpec::parse(*layers_text);
  } catch (const std::exception& error) {
    std::cerr << "ppg_analyze: bad layers spec " << layers_path->string()
              << ": " << error.what() << "\n";
    return 2;
  }

  // Collect the tree, keyed by root-relative generic paths.
  std::vector<ppg::analyze::SourceText> files;
  for (fs::recursive_directory_iterator it(options.root), end;
       it != end; ++it) {
    if (!it->is_regular_file() || !is_cpp_file(it->path())) continue;
    const auto text = read_file(it->path());
    if (!text) {
      std::cerr << "ppg_analyze: cannot read " << it->path().string() << "\n";
      return 2;
    }
    files.push_back(ppg::analyze::SourceText{
        it->path().lexically_relative(options.root).generic_string(),
        *text});
  }
  std::sort(files.begin(), files.end(),
            [](const auto& a, const auto& b) { return a.path < b.path; });

  const std::string prefix = options.root.generic_string() + "/";
  std::vector<ppg::lint::ReportEntry> entries;
  for (ppg::analyze::FileFinding& ff :
       ppg::analyze::analyze_source_set(files, spec)) {
    const std::string display = prefix + ff.file;
    if (!options.quiet) {
      std::cout << display << ":" << ff.finding.line << ": ["
                << ff.finding.rule << "] " << ff.finding.message << "\n";
    }
    entries.push_back(ppg::lint::ReportEntry{
        display, ff.finding.line, std::move(ff.finding.rule), "error",
        std::move(ff.finding.message)});
  }

  if (!options.json_path.empty()) {
    try {
      ppg::lint::write_json_report(options.json_path, "ppg_analyze",
                                   files.size(), entries);
    } catch (const std::exception& error) {
      std::cerr << "ppg_analyze: cannot write " << options.json_path << ": "
                << error.what() << "\n";
      return 2;
    }
  }

  if (!options.quiet) {
    std::cerr << "ppg_analyze: " << files.size() << " files, "
              << entries.size() << " finding"
              << (entries.size() == 1 ? "" : "s") << "\n";
  }
  return entries.empty() ? 0 : 1;
}
