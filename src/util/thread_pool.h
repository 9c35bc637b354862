// Deterministic parallel execution primitives.
//
// A fixed-size worker pool plus a `parallel_for` helper used across the
// simulation, statistics and analysis layers. Parallelism here is purely a
// scheduling concern: every parallel call site derives the randomness of
// work item `i` from a counter-based seed (see `derive_seed` in rng.h) and
// writes item `i`'s output to a dedicated slot, so results are bit-identical
// regardless of the number of threads (including 1, which runs inline).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

namespace fa {

class ThreadPool {
 public:
  // `thread_count == 0` means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t thread_count = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return threads_.size(); }

  // Runs fn(i) for i in [0, n). Blocks until all iterations complete; any
  // exception thrown by an iteration is rethrown on the calling thread
  // (first one wins). With no workers (thread_count 1) runs inline.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& fn);

  // The process-wide pool. Sized by set_default_thread_count() (or
  // hardware_concurrency) on first use; resized on subsequent changes.
  static ThreadPool& global();

  // Sets the size of the global pool: 0 = hardware concurrency, 1 = serial.
  // Safe to call repeatedly (e.g. from flag parsing); recreates the pool
  // when the size actually changes.
  static void set_default_thread_count(std::size_t threads);
  static std::size_t default_thread_count();

  // Largest thread count a --threads flag may request.
  static constexpr std::size_t kMaxThreads = 1024;

  // Parses a --threads value: decimal digits only, 0..kMaxThreads (0 = all
  // cores). A sign, blank, trailing text or larger value yields nullopt.
  static std::optional<std::size_t> parse_thread_count(std::string_view text);

  // std::thread::hardware_concurrency() with a floor of 1.
  static std::size_t hardware_threads();

 private:
  struct Batch;

  // `worker` is the 1-based dedicated-worker index (the calling thread of a
  // parallel_for acts as worker 0); used to label per-worker metrics.
  void worker_loop(std::size_t worker);

  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  std::shared_ptr<Batch> batch_;  // current parallel_for, null when idle
  bool shutting_down_ = false;
};

// Convenience wrapper over the global pool: deterministic parallel loop.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

}  // namespace fa
