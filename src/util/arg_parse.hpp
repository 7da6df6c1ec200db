// Minimal command-line option parsing for the example/driver binaries.
//
// Supports --key=value, --key value, and boolean --flag forms. Unknown
// options are an error (fail fast beats silently ignored typos in
// experiment scripts). No dependencies, fully testable.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ppg {

class ArgParser {
 public:
  /// Parses argv; throws ppg::PpgException (ErrorCode::kBadInput) on
  /// malformed input.
  ArgParser(int argc, const char* const* argv);

  bool has(const std::string& key) const;

  std::string get_string(const std::string& key,
                         const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  /// A count or size: get_int, then kBadInput when the value is below
  /// `min` (a negative value would wrap to a huge unsigned one and fail
  /// far from its cause).
  std::uint64_t get_count(const std::string& key, std::uint64_t fallback,
                          std::uint64_t min = 0) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback = false) const;

  /// Non-option positional arguments, in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Keys that were provided but never queried — typo detection for
  /// drivers; call at the end of argument handling.
  std::vector<std::string> unused_keys() const;

 private:
  std::map<std::string, std::string> options_;
  mutable std::map<std::string, bool> queried_;
  std::vector<std::string> positional_;
};

}  // namespace ppg
