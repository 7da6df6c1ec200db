// Clean: concurrency goes through util/thread_pool, whose executor owns
// the determinism and error-capture behaviour (and which is itself the
// designated raw-thread exception).
#include <cstddef>
#include <functional>

namespace ppg {
void parallel_for_index(std::size_t jobs, std::size_t n,
                        const std::function<void(std::size_t)>& fn);
}

void touch_all(int* data, std::size_t n) {
  ppg::parallel_for_index(4, n,
                          [&](std::size_t i) { data[i] = static_cast<int>(i); });
}
