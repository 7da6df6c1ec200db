// Violates raw-getenv (library realm): a raw environment read makes the
// result depend on ambient process state, bypassing flag parsing and
// validation.
#include <cstdlib>
#include <string>

std::string budget() {
  const char* raw = std::getenv("PPG_BUDGET");
  return raw != nullptr ? raw : "";
}
