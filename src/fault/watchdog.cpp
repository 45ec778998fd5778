#include "fault/watchdog.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

namespace ld::fault {

namespace {

thread_local const CancelToken* t_cancel_token = nullptr;

// Runs fn and classifies how it ended, for both of Supervisor::run's paths:
// false with `error` set when fn threw, and `permanent` set when that was a
// std::logic_error (std::invalid_argument included), which no retry can fix.
bool run_classified(const std::function<void()>& fn, std::string& error, bool& permanent) {
  try {
    fn();
    return true;
  } catch (const std::logic_error& e) {
    error = e.what();
    permanent = true;
  } catch (const std::exception& e) {
    error = e.what();
  } catch (...) {
    error = "unknown exception";
  }
  return false;
}

}  // namespace

CancelScope::CancelScope(const CancelToken* token) noexcept : previous_(t_cancel_token) {
  t_cancel_token = token;
}

CancelScope::~CancelScope() { t_cancel_token = previous_; }

bool cancellation_requested() noexcept {
  return t_cancel_token != nullptr && t_cancel_token->cancelled();
}

void cancellable_sleep(double seconds) {
  if (seconds <= 0.0) return;
  using clock = std::chrono::steady_clock;
  const auto deadline =
      clock::now() + std::chrono::duration_cast<clock::duration>(
                         std::chrono::duration<double>(seconds));
  while (clock::now() < deadline) {
    if (cancellation_requested()) return;
    const auto remaining = deadline - clock::now();
    std::this_thread::sleep_for(
        std::min<clock::duration>(remaining, std::chrono::milliseconds(1)));
  }
}

double backoff_seconds(const RetryPolicy& policy, std::size_t attempt, Rng& rng) {
  double base = policy.initial_backoff_seconds;
  for (std::size_t k = 0; k < attempt && base < policy.max_backoff_seconds; ++k)
    base *= policy.backoff_multiplier;
  base = std::min(base, policy.max_backoff_seconds);
  const double u = 2.0 * rng.uniform() - 1.0;  // U[-1, 1)
  return std::max(0.0, base * (1.0 + policy.jitter * u));
}

const char* to_string(TaskStatus status) noexcept {
  switch (status) {
    case TaskStatus::kCompleted: return "completed";
    case TaskStatus::kFailed: return "failed";
    case TaskStatus::kTimedOut: return "timed_out";
  }
  return "unknown";
}

Supervisor::~Supervisor() {
  std::vector<std::pair<std::thread, std::shared_ptr<Task>>> orphans;
  {
    std::scoped_lock lock(mu_);
    orphans.swap(orphans_);
  }
  for (auto& [thread, task] : orphans) {
    task->token.cancel();
    if (thread.joinable()) thread.join();
  }
}

TaskStatus Supervisor::run(const std::function<void()>& fn, double timeout_seconds,
                           std::string* error, bool* permanent) {
  if (permanent != nullptr) *permanent = false;
  if (timeout_seconds <= 0.0) {
    // Unsupervised fast path: no helper thread, no cancellation.
    std::string task_error;
    bool task_permanent = false;
    if (run_classified(fn, task_error, task_permanent)) return TaskStatus::kCompleted;
    if (error != nullptr) *error = std::move(task_error);
    if (permanent != nullptr) *permanent = task_permanent;
    return TaskStatus::kFailed;
  }

  {
    std::scoped_lock lock(mu_);
    reap_finished_locked();
  }

  auto task = std::make_shared<Task>();
  std::thread worker([task, fn] {
    CancelScope scope(&task->token);
    std::string task_error;
    bool task_permanent = false;
    const bool completed = run_classified(fn, task_error, task_permanent);
    std::scoped_lock lock(task->mu);
    task->failed = !completed;
    task->error = std::move(task_error);
    task->permanent = task_permanent;
    task->done = true;
    task->cv.notify_all();
  });

  bool finished = false;
  {
    std::unique_lock lock(task->mu);
    finished = task->cv.wait_for(lock, std::chrono::duration<double>(timeout_seconds),
                                 [&task] { return task->done; });
  }
  if (!finished) {
    task->token.cancel();
    // Give the task a short grace period to observe cancellation — a
    // cooperative worker unwinds in ~1 ms and we can join it here instead
    // of orphaning a thread.
    {
      std::unique_lock lock(task->mu);
      finished = task->cv.wait_for(lock, std::chrono::milliseconds(50),
                                   [&task] { return task->done; });
    }
    if (!finished) {
      std::scoped_lock lock(mu_);
      orphans_.emplace_back(std::move(worker), task);
      return TaskStatus::kTimedOut;
    }
    worker.join();
    return TaskStatus::kTimedOut;
  }
  worker.join();

  if (task->failed) {
    if (error != nullptr) *error = task->error;
    if (permanent != nullptr) *permanent = task->permanent;
    return TaskStatus::kFailed;
  }
  return TaskStatus::kCompleted;
}

std::size_t Supervisor::orphaned() const {
  std::scoped_lock lock(mu_);
  std::size_t count = 0;
  for (const auto& [thread, task] : orphans_) {
    std::scoped_lock task_lock(task->mu);
    if (!task->done) ++count;
  }
  return count;
}

void Supervisor::reap_finished_locked() {
  auto it = orphans_.begin();
  while (it != orphans_.end()) {
    bool done = false;
    {
      std::scoped_lock task_lock(it->second->mu);
      done = it->second->done;
    }
    if (done) {
      if (it->first.joinable()) it->first.join();
      it = orphans_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace ld::fault
