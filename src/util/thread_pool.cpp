#include "src/util/thread_pool.h"

#include <atomic>
#include <charconv>
#include <chrono>
#include <exception>
#include <memory>
#include <string>

#include "src/obs/metrics.h"

namespace fa {

namespace {

// Per-worker metric handles, resolved once per (worker index, metric) —
// schedule-dependent values, so the whole family is timing-class.
struct WorkerMetrics {
  obs::Counter& items;
  obs::Counter& busy_us;
  obs::Counter& idle_us;

  explicit WorkerMetrics(std::size_t worker)
      : items(obs::counter("fa.pool.worker.items",
                           {{"worker", std::to_string(worker)}},
                           obs::Stability::kTiming)),
        busy_us(obs::counter("fa.pool.worker.busy_us",
                             {{"worker", std::to_string(worker)}},
                             obs::Stability::kTiming)),
        idle_us(obs::counter("fa.pool.worker.idle_us",
                             {{"worker", std::to_string(worker)}},
                             obs::Stability::kTiming)) {}
};

std::uint64_t us_between(std::chrono::steady_clock::time_point a,
                         std::chrono::steady_clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(b - a).count());
}

}  // namespace

// One parallel_for invocation: an atomic work counter the caller and every
// worker drain together, plus completion bookkeeping. Held by shared_ptr so
// a straggler worker that wakes late can still probe the (already drained)
// counter safely.
struct ThreadPool::Batch {
  std::size_t n = 0;
  const std::function<void(std::size_t)>* fn = nullptr;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::mutex done_mutex;
  std::condition_variable all_done;
  std::exception_ptr error;
  std::mutex error_mutex;

  // Returns the number of items this thread executed, so callers can
  // attribute work to individual workers.
  std::size_t run_slice() {
    std::size_t executed = 0;
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      try {
        (*fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
      }
      ++executed;
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
        std::lock_guard<std::mutex> lock(done_mutex);
        all_done.notify_all();
      }
    }
    return executed;
  }
};

ThreadPool::ThreadPool(std::size_t thread_count) {
  if (thread_count == 0) {
    thread_count = std::thread::hardware_concurrency();
    if (thread_count == 0) thread_count = 1;
  }
  // The calling thread participates in every parallel_for, so a pool of
  // size N needs N-1 dedicated workers.
  if (thread_count > 1) threads_.reserve(thread_count - 1);
  for (std::size_t i = 0; i + 1 < thread_count; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i + 1); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::worker_loop(std::size_t worker) {
  WorkerMetrics metrics(worker);
  std::shared_ptr<Batch> previous;
  for (;;) {
    std::shared_ptr<Batch> batch;
    const auto wait_start = std::chrono::steady_clock::now();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock, [&] {
        return shutting_down_ || (batch_ && batch_ != previous);
      });
      if (shutting_down_) return;
      batch = batch_;
    }
    const auto run_start = std::chrono::steady_clock::now();
    metrics.idle_us.add(us_between(wait_start, run_start));
    const std::size_t executed = batch->run_slice();
    metrics.busy_us.add(us_between(run_start, std::chrono::steady_clock::now()));
    metrics.items.add(executed);
    // Remember the batch we just drained so the next wait doesn't re-enter
    // it if the caller has not retired it yet.
    previous = std::move(batch);
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // Batch shape depends only on n, never on the schedule, so these stay in
  // the deterministic export.
  static obs::Counter& batches = obs::counter("fa.pool.batches");
  static obs::Counter& items = obs::counter("fa.pool.items");
  static obs::Histogram& batch_items = obs::histogram(
      "fa.pool.batch_items", obs::size_bounds(), {},
      obs::Stability::kDeterministic);
  batches.add(1);
  items.add(n);
  batch_items.record(static_cast<double>(n));
  if (threads_.empty() || n == 1) {
    static WorkerMetrics caller_metrics(0);
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < n; ++i) fn(i);
    caller_metrics.busy_us.add(
        us_between(start, std::chrono::steady_clock::now()));
    caller_metrics.items.add(n);
    return;
  }
  auto batch = std::make_shared<Batch>();
  batch->n = n;
  batch->fn = &fn;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    batch_ = batch;
  }
  work_available_.notify_all();
  {
    static WorkerMetrics caller_metrics(0);
    const auto start = std::chrono::steady_clock::now();
    const std::size_t executed = batch->run_slice();
    caller_metrics.busy_us.add(
        us_between(start, std::chrono::steady_clock::now()));
    caller_metrics.items.add(executed);
  }
  {
    std::unique_lock<std::mutex> lock(batch->done_mutex);
    batch->all_done.wait(lock, [&batch] {
      return batch->done.load(std::memory_order_acquire) >= batch->n;
    });
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    batch_.reset();
  }
  work_available_.notify_all();
  if (batch->error) std::rethrow_exception(batch->error);
}

namespace {

std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;
std::size_t g_requested_threads = 0;  // 0 = hardware concurrency

}  // namespace

ThreadPool& ThreadPool::global() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (!g_pool) g_pool = std::make_unique<ThreadPool>(g_requested_threads);
  return *g_pool;
}

void ThreadPool::set_default_thread_count(std::size_t threads) {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (threads == g_requested_threads && g_pool) return;
  g_requested_threads = threads;
  g_pool.reset();  // lazily rebuilt at the new size on next use
}

std::size_t ThreadPool::default_thread_count() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  return g_requested_threads;
}

std::optional<std::size_t> ThreadPool::parse_thread_count(
    std::string_view text) {
  std::size_t n = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, n);
  if (error != std::errc() || stop != end || n > kMaxThreads) {
    return std::nullopt;
  }
  return n;
}

std::size_t ThreadPool::hardware_threads() {
  const std::size_t n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  ThreadPool::global().parallel_for(n, fn);
}

}  // namespace fa
