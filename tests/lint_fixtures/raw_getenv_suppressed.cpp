// Same violation, silenced per line.
#include <cstdlib>
#include <string>

std::string budget() {
  // ppg-lint: allow(raw-getenv): fixture
  const char* raw = std::getenv("PPG_BUDGET");
  return raw != nullptr ? raw : "";
}
