#include "util/parallel.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <mutex>

#include "util/parse.hpp"

namespace flexnet {

std::size_t worker_thread_count() noexcept {
  const auto fallback = [] {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? std::size_t{1} : static_cast<std::size_t>(hw);
  };
  // Only a whole, positive, in-range decimal integer counts; "0", negatives,
  // "abc", "4x", " 2" and overflowing values all fall back silently.
  const char* env = std::getenv("FLEXNET_THREADS");
  const auto count =
      env != nullptr
          ? parse_int(env, 1, std::numeric_limits<long long>::max())
          : std::nullopt;
  return count ? static_cast<std::size_t>(*count) : fallback();
}

void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  const std::size_t threads = std::min(worker_thread_count(), count);
  if (threads <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= count) return;
      try {
        fn(i);
      } catch (...) {
        const std::scoped_lock lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (auto& th : pool) th.join();

  if (first_error) std::rethrow_exception(first_error);
}

namespace {
// Spin politely: burn a few iterations, then start yielding so an
// oversubscribed machine (CI runners, sanitizer builds) still makes
// progress. The hot case — all parties actively stepping — never yields.
inline void spin_pause(int& spins) {
  if (++spins >= 64) {
    std::this_thread::yield();
    spins = 0;
  }
}
}  // namespace

WorkerPool::WorkerPool(std::size_t parties)
    : parties_(parties == 0 ? 1 : parties) {
  threads_.reserve(parties_ > 0 ? parties_ - 1 : 0);
  for (std::size_t i = 1; i < parties_; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

WorkerPool::~WorkerPool() {
  stop_.store(true, std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_release);
  for (auto& th : threads_) th.join();
}

void WorkerPool::run(const std::function<void(std::size_t)>& fn) {
  if (parties_ == 1) {
    fn(0);
    return;
  }
  job_ = &fn;
  outstanding_.store(parties_ - 1, std::memory_order_relaxed);
  // Release-publish job_ and outstanding_ to workers spinning on the
  // generation counter.
  generation_.fetch_add(1, std::memory_order_release);
  try {
    fn(0);
  } catch (...) {
    if (!has_error_.exchange(true, std::memory_order_relaxed)) {
      first_error_ = std::current_exception();
    }
  }
  int spins = 0;
  while (outstanding_.load(std::memory_order_acquire) != 0) spin_pause(spins);
  job_ = nullptr;
  if (has_error_.load(std::memory_order_relaxed)) {
    const std::exception_ptr err = first_error_;
    first_error_ = nullptr;
    has_error_.store(false, std::memory_order_relaxed);
    std::rethrow_exception(err);
  }
}

void WorkerPool::worker_loop(std::size_t index) {
  std::uint64_t seen = 0;
  for (;;) {
    int spins = 0;
    while (generation_.load(std::memory_order_acquire) == seen) {
      spin_pause(spins);
    }
    ++seen;
    if (stop_.load(std::memory_order_relaxed)) return;
    try {
      (*job_)(index);
    } catch (...) {
      if (!has_error_.exchange(true, std::memory_order_relaxed)) {
        first_error_ = std::current_exception();
      }
    }
    // Release our writes (simulation state mutated by the job) to the main
    // thread's acquire-load in run().
    outstanding_.fetch_sub(1, std::memory_order_release);
  }
}

}  // namespace flexnet
