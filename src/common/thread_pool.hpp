// Fixed-size thread pool shared by the parallel hot paths (batched Bayesian
// optimization, brute-force/grid/random search, per-workload bench fan-out).
//
// Determinism contract: the pool never decides *what* work runs, only *where*
// it runs. Callers pre-assign every task its inputs (including its own seeded
// Rng stream) and write results into per-index slots, so outcomes are
// bit-identical for any pool size — including size <= 1, where everything
// executes inline on the calling thread (the single-core configuration).
// This is the library's only thread runtime: GEMM row panels, forest fits,
// batched BO and the search/bench fan-outs all run here.
//
// Nesting contract: work scheduled from inside a pool worker executes inline
// on that worker instead of being enqueued, so nested parallel_for/submit
// calls (e.g. a parallel fit inside a parallel bench sweep) can never
// deadlock waiting on the pool they occupy.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace ld {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 or 1 means no workers (inline execution).
  explicit ThreadPool(std::size_t threads = default_threads());
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker count (0 when the pool degrades to inline execution).
  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Logical concurrency: max(1, size()).
  [[nodiscard]] std::size_t concurrency() const noexcept {
    return workers_.empty() ? 1 : workers_.size();
  }

  /// Schedule `fn` and return a future for its result. Exceptions thrown by
  /// `fn` propagate through future::get(). Runs inline (before returning)
  /// when the pool has no workers or the caller is itself a pool worker.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    if (workers_.empty() || in_worker()) {
      (*task)();
    } else {
      enqueue([task] { (*task)(); });
    }
    return future;
  }

  /// Invoke `fn(i)` for every i in [begin, end), distributing contiguous
  /// chunks across the workers (the caller participates too). Blocks until
  /// every index completed. If any invocation throws, the first exception
  /// (by chunk order) is rethrown after all chunks finish. Iteration order
  /// within a chunk is ascending, so per-index side effects are deterministic.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

  /// True when called from one of this process's pool worker threads.
  [[nodiscard]] static bool in_worker() noexcept;

  /// Thread count from LD_NUM_THREADS (clamped to [1, 256]), falling back to
  /// std::thread::hardware_concurrency().
  [[nodiscard]] static std::size_t default_threads();

  /// Process-wide shared pool, created on first use with default_threads().
  [[nodiscard]] static ThreadPool& global();

  /// Rebuild the global pool with `threads` workers. Only safe while no work
  /// is in flight — intended for CLI flag handling, benches and tests.
  static void set_global_size(std::size_t threads);

 private:
  void enqueue(std::function<void()> task);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace ld
