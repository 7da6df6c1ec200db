// Shared conventions for the experiment binaries: every bench prints a
// banner naming the experiment (matching DESIGN.md / EXPERIMENTS.md ids),
// the paper claim it checks, the measurement table, and — where the claim
// is a scaling shape — a ratio-vs-log2(p) fit table.
//
// All benches take a shared --jobs flag (see parallel_sweep.hpp): cells
// are computed concurrently, output is emitted sequentially afterwards and
// is byte-identical at every --jobs value. --engine-threads sets the
// engine's intra-run threads and is output-neutral too.
#pragma once

#include <cstdio>
#include <iostream>
#include <new>
#include <stdexcept>
#include <string>

#include "bench_support/parallel_sweep.hpp"
#include "util/arg_parse.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace ppg::bench {

/// Call after reading every supported flag: unknown options are a hard
/// error (fail fast beats silently ignored typos in experiment scripts).
inline void reject_unknown_options(const ArgParser& args) {
  const std::vector<std::string> unused = args.unused_keys();
  if (unused.empty()) return;
  std::string msg = "unknown option(s):";
  for (const std::string& key : unused) msg += " --" + key;
  throw std::invalid_argument(msg);
}

/// Standard bench entry point wrapper: recoverable failures (malformed
/// flags, corrupt trace input — anything carried by ppg::Error or a std
/// exception) print `error: [code] message` and exit 1 instead of
/// std::terminate, matching the examples' contract. std::bad_alloc maps
/// to a structured [resource-exhausted] exit.
inline int guarded_main(int (*body)(int, char**), int argc, char** argv) {
  try {
    return body(argc, argv);
  } catch (const std::bad_alloc&) {
    Error oom;
    oom.code = ErrorCode::kResourceExhausted;
    oom.message = "allocation failed (std::bad_alloc)";
    std::cerr << "error: " << oom.to_string() << "\n";
    return 1;
  } catch (const std::exception& err) {
    std::cerr << "error: " << err.what() << "\n";
    return 1;
  }
}

inline void banner(const std::string& id, const std::string& title,
                   const std::string& claim) {
  std::cout << "\n================================================================\n"
            << id << ": " << title << "\n"
            << "Claim: " << claim << "\n"
            << "================================================================\n";
}

inline void section(const std::string& name) {
  std::cout << "\n-- " << name << " --\n";
}

inline void print_table(const Table& table) {
  table.print(std::cout);
  std::cout.flush();
}

}  // namespace ppg::bench
