// Same violations as static_mutable_bad.cpp, silenced with rationales —
// the one way a deliberate process global passes the rule, which has no
// designated exceptions.
#include <cstdint>

namespace fixture {

// ppg-lint: allow(static-mutable): crash-only telemetry, never read back
std::uint64_t g_crash_count = 0;

std::uint64_t next_id() {
  // ppg-lint: allow(static-mutable): intentional process-wide id sequence
  static std::uint64_t counter = 0;
  return ++counter;
}

}  // namespace fixture
