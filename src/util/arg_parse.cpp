#include "util/arg_parse.hpp"

#include "util/error.hpp"

namespace ppg {

ArgParser::ArgParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    if (body.empty()) throw_error(ErrorCode::kBadInput, "bare '--' argument");
    if (const auto eq = body.find('='); eq != std::string::npos) {
      options_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // --key value, unless the next token is another option or missing:
    // then it is a boolean flag.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      options_[body] = argv[++i];
    } else {
      options_[body] = "true";
    }
  }
}

bool ArgParser::has(const std::string& key) const {
  queried_[key] = true;
  return options_.contains(key);
}

std::string ArgParser::get_string(const std::string& key,
                                  const std::string& fallback) const {
  queried_[key] = true;
  const auto it = options_.find(key);
  return it == options_.end() ? fallback : it->second;
}

std::int64_t ArgParser::get_int(const std::string& key,
                                std::int64_t fallback) const {
  queried_[key] = true;
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  std::size_t pos = 0;
  std::int64_t value = 0;
  bool parsed = true;
  try {
    value = std::stoll(it->second, &pos);
  } catch (const std::exception&) {
    parsed = false;
  }
  if (!parsed || pos != it->second.size()) {
    throw_error(ErrorCode::kBadInput, "--" + key +
                                          " expects an integer, got '" +
                                          it->second + "'");
  }
  return value;
}

std::uint64_t ArgParser::get_count(const std::string& key,
                                   std::uint64_t fallback,
                                   std::uint64_t min) const {
  const std::int64_t value =
      get_int(key, static_cast<std::int64_t>(fallback));
  if (value < 0 || static_cast<std::uint64_t>(value) < min) {
    throw_error(ErrorCode::kBadInput,
                "--" + key + " expects an integer >= " + std::to_string(min) +
                    ", got " + std::to_string(value));
  }
  return static_cast<std::uint64_t>(value);
}

double ArgParser::get_double(const std::string& key, double fallback) const {
  queried_[key] = true;
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  std::size_t pos = 0;
  double value = 0.0;
  bool parsed = true;
  try {
    value = std::stod(it->second, &pos);
  } catch (const std::exception&) {
    parsed = false;
  }
  if (!parsed || pos != it->second.size()) {
    throw_error(ErrorCode::kBadInput, "--" + key + " expects a number, got '" +
                                          it->second + "'");
  }
  return value;
}

bool ArgParser::get_bool(const std::string& key, bool fallback) const {
  queried_[key] = true;
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  if (it->second == "true" || it->second == "1" || it->second == "yes")
    return true;
  if (it->second == "false" || it->second == "0" || it->second == "no")
    return false;
  throw_error(ErrorCode::kBadInput, "--" + key + " expects a boolean, got '" +
                                        it->second + "'");
}

std::vector<std::string> ArgParser::unused_keys() const {
  std::vector<std::string> unused;
  for (const auto& [key, value] : options_)
    if (!queried_.contains(key)) unused.push_back(key);
  return unused;
}

}  // namespace ppg
