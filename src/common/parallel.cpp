#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace prestage {

unsigned resolve_jobs(unsigned jobs) {
  if (jobs != 0) return jobs;
  return std::max(1U, std::thread::hardware_concurrency());
}

void parallel_for_indexed(std::size_t count, unsigned jobs,
                          const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  const unsigned workers = static_cast<unsigned>(std::min<std::size_t>(
      resolve_jobs(jobs), count));

  // Simulations are milliseconds long, so one contended counter costs
  // nothing measurable.
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  auto work = [&] {
    while (!failed.load(std::memory_order_acquire)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        body(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_release);
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) pool.emplace_back(work);
  for (auto& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace prestage
