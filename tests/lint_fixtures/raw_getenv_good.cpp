// Clean: a run's knobs arrive as parsed, validated flags, never from the
// ambient environment, so the result is a pure function of its arguments.
#include <cstdint>

#include "util/arg_parse.hpp"

std::int64_t kill_at(const ppg::ArgParser& args) {
  return args.get_int("kill-at", -1);
}
