// Violates raw-thread (library realm): an ad-hoc std::thread bypasses the
// determinism contract of util/thread_pool (slot-indexed output,
// first-error capture).
#include <thread>

void touch_all(int* data, int n) {
  std::thread worker([&] {
    for (int i = 0; i < n; ++i) data[i] = i;
  });
  worker.join();
}
