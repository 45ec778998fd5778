// Cooperative cancellation, deadline supervision, and retry/backoff for
// long-running background work (the serving layer's retrain worker).
//
// A Supervisor runs a task on a helper thread and waits up to a deadline.
// On timeout it requests cancellation through a thread-local CancelToken —
// long loops (the nn trainer's epoch loop, injected hangs) poll
// cancellation_requested() and unwind promptly — and parks the still-running
// thread on an orphan list that is reaped opportunistically and joined at
// destruction, so a hung attempt never blocks the caller and never leaks a
// detached thread.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"

namespace ld::fault {

class CancelToken {
 public:
  void cancel() noexcept { flag_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool cancelled() const noexcept {
    return flag_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> flag_{false};
};

/// Installs `token` as the calling thread's cancellation token for the
/// enclosing scope (restores the previous one on exit, so scopes nest).
class CancelScope {
 public:
  explicit CancelScope(const CancelToken* token) noexcept;
  ~CancelScope();
  CancelScope(const CancelScope&) = delete;
  CancelScope& operator=(const CancelScope&) = delete;

 private:
  const CancelToken* previous_;
};

/// True when the calling thread's current CancelToken has been cancelled.
/// One thread-local pointer read plus one relaxed load — cheap enough for
/// per-epoch polling.
[[nodiscard]] bool cancellation_requested() noexcept;

/// Thrown by cooperative workers when they observe cancellation.
class CancelledError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Sleep for up to `seconds` in ~1 ms slices, returning early when the
/// calling thread is cancelled.
void cancellable_sleep(double seconds);

/// Capped exponential backoff with deterministic jitter: attempt k waits
/// min(initial * multiplier^k, max) * (1 + jitter * u), u ~ U[-1, 1) drawn
/// from the caller's seeded RNG, so retry schedules replay bit-identically.
struct RetryPolicy {
  std::size_t max_attempts = 3;
  double initial_backoff_seconds = 0.05;
  double backoff_multiplier = 2.0;
  double max_backoff_seconds = 2.0;
  double jitter = 0.25;
};
[[nodiscard]] double backoff_seconds(const RetryPolicy& policy, std::size_t attempt,
                                     Rng& rng);

enum class TaskStatus { kCompleted, kFailed, kTimedOut };
[[nodiscard]] const char* to_string(TaskStatus status) noexcept;

class Supervisor {
 public:
  Supervisor() = default;
  ~Supervisor();
  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Run `fn` with a deadline. timeout_seconds <= 0 runs inline (no helper
  /// thread, no cancellation) — the unsupervised fast path. On kFailed,
  /// `error` receives the exception message and `permanent` is set when the
  /// exception was a std::invalid_argument / std::logic_error (retrying
  /// cannot help). On kTimedOut the task is cancelled and orphaned; its
  /// side effects must be confined to state captured inside `fn`.
  TaskStatus run(const std::function<void()>& fn, double timeout_seconds,
                 std::string* error = nullptr, bool* permanent = nullptr);

  /// Timed-out tasks still running (reaped as they finish).
  [[nodiscard]] std::size_t orphaned() const;

 private:
  struct Task {
    CancelToken token;
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    bool failed = false;
    std::string error;
    bool permanent = false;
  };

  void reap_finished_locked();

  mutable std::mutex mu_;
  std::vector<std::pair<std::thread, std::shared_ptr<Task>>> orphans_;
};

}  // namespace ld::fault
