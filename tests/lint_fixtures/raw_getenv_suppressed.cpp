// Same violation, silenced per line.
#include <cstdlib>
#include <string>

std::string kill_at() {
  // ppg-lint: allow(raw-getenv): fixture
  const char* raw = std::getenv("PPG_KILL_AT");
  return raw != nullptr ? raw : "";
}
