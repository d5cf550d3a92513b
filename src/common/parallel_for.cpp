#include "common/parallel_for.hpp"

#include <thread>
#include <vector>

namespace gaurast::common {

void parallel_for_workers(std::size_t workers,
                          const std::function<void(std::size_t)>& body) {
  if (workers == 1) {
    body(0);
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t worker = 0; worker < workers; ++worker) {
    threads.emplace_back([&body, worker] { body(worker); });
  }
  for (std::thread& thread : threads) thread.join();
}

}  // namespace gaurast::common
