#include "common/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>

#ifdef __linux__
#include <sched.h>
#endif

namespace oal::common {

namespace {

/// Upper bound of one streaming spin-wait before the thread parks: a few
/// condvar wake-ups' worth (those cost tens of µs at p50 and up to ms at p99
/// on a loaded host), far below a shard's run time.
constexpr std::chrono::microseconds kSpinBound{100};

/// Polls done() until it holds or kSpinBound passes; the caller then
/// parks (or proceeds) as before.  Each round yields the CPU, so a spinner
/// never holds off a runnable worker on an oversubscribed host.
template <typename Done>
void spin_until(const Done& done) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinBound;
  while (!done() && std::chrono::steady_clock::now() < deadline) std::this_thread::yield();
}

/// CPUs the calling thread may run on; hardware_concurrency() where the
/// affinity mask is unavailable; at least 1.
std::size_t default_pool_size() {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0)
    return static_cast<std::size_t>(CPU_COUNT(&set));
#endif
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

}  // namespace

/// One fork-join: indices leave through the cursor `next`, highest first
/// or lowest first.  All shared state lives behind a shared_ptr: a helper
/// may start after the caller has returned, so it must never touch the
/// caller's stack frame.  The cursor check guards the fn pointer — helpers
/// that find the cursor exhausted never dereference it.
struct ThreadPool::Batch {
  Batch(std::size_t count, const std::function<void(std::size_t)>& f, bool highest)
      : remaining(count), n(count), highest_first(highest), fn(&f), errors(count) {}

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> remaining;
  const std::size_t n;
  const bool highest_first;
  const std::function<void(std::size_t)>* const fn;
  std::vector<std::exception_ptr> errors;
  std::mutex mutex;
  std::condition_variable done_cv;
  /// True while the caller may start another batch right after this one:
  /// helpers out of indices spin for it (streaming fork-joins only).
  std::atomic<bool> linger{false};

  void drain() {
    for (;;) {
      const std::size_t k = next.fetch_add(1);
      if (k >= n) return;
      const std::size_t i = highest_first ? n - 1 - k : k;
      try {
        (*fn)(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
      if (remaining.fetch_sub(1) == 1) {
        std::lock_guard<std::mutex> lock(mutex);
        done_cv.notify_all();
      }
    }
  }

  bool done() const { return remaining.load() == 0; }
};

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = default_pool_size();
  queues_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) queues_.push_back(std::make_unique<WorkerQueue>());
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  std::size_t target;
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    if (stop_) throw std::logic_error("ThreadPool::submit: pool is shutting down");
    target = next_queue_;
    next_queue_ = (next_queue_ + 1) % queues_.size();
  }
  {
    std::lock_guard<std::mutex> lock(queues_[target]->mutex);
    queues_[target]->tasks.push_back(std::move(task));
  }
  // queued_ rises only after the task is visible in its deque, so a worker
  // woken by the predicate (or leaving a spin on it) always finds work.
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    ++queued_;
  }
  wake_cv_.notify_one();
}

bool ThreadPool::try_pop(std::size_t worker_index, std::function<void()>& task) {
  // Own queue first, newest task (LIFO: better locality for recursive splits).
  {
    WorkerQueue& q = *queues_[worker_index];
    std::lock_guard<std::mutex> lock(q.mutex);
    if (!q.tasks.empty()) {
      task = std::move(q.tasks.back());
      q.tasks.pop_back();
      return true;
    }
  }
  // Steal the oldest task from a sibling.
  for (std::size_t k = 1; k < queues_.size(); ++k) {
    WorkerQueue& q = *queues_[(worker_index + k) % queues_.size()];
    std::lock_guard<std::mutex> lock(q.mutex);
    if (!q.tasks.empty()) {
      task = std::move(q.tasks.front());
      q.tasks.pop_front();
      return true;
    }
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  for (;;) {
    std::function<void()> task;
    if (try_pop(worker_index, task)) {
      {
        std::lock_guard<std::mutex> lock(wake_mutex_);
        --queued_;
      }
      task();
      continue;
    }
    std::unique_lock<std::mutex> lock(wake_mutex_);
    wake_cv_.wait(lock, [this] { return stop_ || queued_.load() > 0; });
    if (stop_ && queued_.load() == 0) return;
  }
}

void ThreadPool::fork_join(std::size_t n, const std::function<void(std::size_t)>& fn,
                           const std::function<bool()>* overlap, bool caller_drains) {
  // run_indexed starts the highest index first, so a sweep built in
  // ascending cost order starts its long poles first.  run_helping starts
  // the lowest first: highest first measured ~4% slower end to end on its
  // main caller, the cold Oracle search and labeling (perfbench
  // online_il_adapt run_s).
  auto batch = std::make_shared<Batch>(n, fn, /*highest=*/!caller_drains);
  batch->linger.store(overlap != nullptr);
  const std::size_t helpers = std::min(size(), n);
  for (std::size_t h = 0; h < helpers; ++h)
    submit([this, batch] {
      batch->drain();
      // Out of indices: a streaming caller's next batch is likely queued
      // within microseconds, so wait for it awake (bounded) before parking.
      if (batch->linger.load())
        spin_until([&] { return queued_.load() > 0 || !batch->linger.load(); });
    });
  if (caller_drains) batch->drain();

  std::exception_ptr overlap_error;
  if (overlap != nullptr) {
    try {
      if (!(*overlap)()) batch->linger.store(false);
    } catch (...) {
      batch->linger.store(false);
      overlap_error = std::current_exception();
    }
    if (batch->linger.load()) spin_until([&] { return batch->done(); });
  }
  // `fn` stays alive until remaining hits 0, because only completed calls
  // decrement it; this wait therefore also fences helpers off `fn`.
  {
    std::unique_lock<std::mutex> lock(batch->mutex);
    batch->done_cv.wait(lock, [&] { return batch->done(); });
  }
  for (std::size_t i = 0; i < n; ++i)
    if (batch->errors[i]) std::rethrow_exception(batch->errors[i]);
  if (overlap_error) std::rethrow_exception(overlap_error);
}

void ThreadPool::run_indexed(std::size_t n, const std::function<void(std::size_t)>& fn,
                             const std::function<bool()>& overlap) {
  fork_join(n, fn, overlap ? &overlap : nullptr, /*caller_drains=*/false);
}

void ThreadPool::run_helping(std::size_t n, const std::function<void(std::size_t)>& fn) {
  fork_join(n, fn, nullptr, /*caller_drains=*/true);
}

}  // namespace oal::common
