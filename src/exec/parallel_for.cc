#include "exec/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace sidq {
namespace exec {

void ParallelFor(size_t n, size_t threads,
                 const std::function<void(size_t)>& fn) {
  if (threads <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Relaxed is enough: the counter only hands out indices, and join()
  // orders every fn(i) before the caller reads the slots.
  std::atomic<size_t> next{0};
  const auto drain = [&next, n, &fn] {
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      fn(i);
    }
  };
  const size_t spawn = std::min(threads, n);
  std::vector<std::thread> workers;
  workers.reserve(spawn);
  for (size_t t = 0; t < spawn; ++t) workers.emplace_back(drain);
  for (std::thread& w : workers) w.join();
}

}  // namespace exec
}  // namespace sidq
