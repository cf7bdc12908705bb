#include "src/util/parallel.h"

#include <algorithm>
#include <thread>
#include <vector>

namespace dissent {

namespace {
thread_local bool t_in_parallel_region = false;
}  // namespace

size_t DefaultCryptoThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max<size_t>(std::min<size_t>(hw, 8), 1);
}

void ParallelFor(size_t n, size_t num_threads,
                 const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) {
    return;
  }
  const size_t workers = std::min(std::max<size_t>(num_threads, 1), n);
  if (workers <= 1 || t_in_parallel_region) {
    fn(0, n);
    return;
  }
  const size_t chunk = (n + workers - 1) / workers;
  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (size_t w = 1; w < workers; ++w) {
    const size_t begin = w * chunk;
    if (begin >= n) {
      break;
    }
    const size_t end = std::min(n, begin + chunk);
    threads.emplace_back([&fn, begin, end] {
      t_in_parallel_region = true;
      fn(begin, end);
      t_in_parallel_region = false;
    });
  }
  // First chunk on the calling thread instead of it idling in join.
  t_in_parallel_region = true;
  fn(0, std::min(n, chunk));
  t_in_parallel_region = false;
  for (auto& t : threads) {
    t.join();
  }
}

}  // namespace dissent
