// Work-stealing thread pool with one fork-join primitive.
//
// Fixed set of workers, one task deque per worker: tasks are dealt
// round-robin, a worker pops its own deque LIFO and steals FIFO from its
// siblings when empty.  The only tasks are fork-join helpers: run_indexed
// and run_helping publish a batch behind one atomic dispatch cursor and
// queue at most size() helpers that drain it, so a batch of n indices costs
// O(size()) queue operations, not O(n).  run_indexed's cursor hands out
// the highest index first, so the long poles a sweep built in ascending
// cost order keeps at its end (e.g. the longest NMPC horizons) start first
// instead of finishing last on one worker; run_helping's hands out the
// lowest first (its Oracle-search callers measured faster that way).
//
// The pool itself is *stateless with respect to tasks* — all per-index
// state lives in the caller's closures, which is what lets ExperimentEngine
// guarantee parallel == serial results (each scenario owns its platform,
// controller, and Rng stream; the pool only schedules).
//
// Idle workers park on a condition variable at once.  The exception is the
// streaming fork-join (run_indexed with an `overlap` hook, see below):
// while its caller says another batch follows, helpers that run out of
// indices spin for ~100 µs (yielding the CPU each round) before parking,
// and so does the caller waiting for the batch to finish.  That hides the
// condvar wake-up latency at every shard boundary of a streaming sweep; the
// spin is bounded, and stops at once when the caller has no next batch.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace oal::common {

class ThreadPool {
 public:
  /// num_threads == 0 picks the number of CPUs the calling thread may run
  /// on (its affinity mask, so `taskset -c 0` gives one worker), falling
  /// back to std::thread::hardware_concurrency() (at least 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Runs fn(0) .. fn(n-1) on the pool workers (highest index first) and
  /// blocks until all complete.  If a call throws, the exception with the
  /// *lowest index* is rethrown after every call has finished —
  /// deterministic regardless of scheduling.  Must not be called from a pool
  /// worker (it would wait for its own thread); use run_helping there.
  ///
  /// `overlap`, when set, runs on the calling thread while the batch runs —
  /// the streaming engine generates its next shard there.  It returns
  /// whether the caller will start another batch right after this one
  /// returns: while it says so, helpers out of indices and the waiting
  /// caller spin briefly instead of parking (see the file comment).  If
  /// `overlap` throws, its exception is rethrown after every call has
  /// finished, unless a call threw too (the lowest-index call wins).
  void run_indexed(std::size_t n, const std::function<void(std::size_t)>& fn,
                   const std::function<bool()>& overlap = nullptr);

  /// Like run_indexed, but the caller *participates*: it drains the same
  /// dispatch cursor as the helpers, lowest index first.  Because the caller can complete every
  /// index alone (helpers that arrive after the cursor is exhausted no-op),
  /// this is safe to call from inside a pool worker — including nested —
  /// where run_indexed would deadlock waiting for its own thread.  Same
  /// exception contract.  Which thread runs an index is scheduling-
  /// dependent, so fn must make results index-deterministic (write only
  /// out[i]).
  void run_helping(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Deterministic parallel map: out[i] = fn(items[i], i), order-independent.
  template <typename T, typename F>
  auto parallel_map(const std::vector<T>& items, F&& fn)
      -> std::vector<decltype(fn(items.front(), std::size_t{0}))> {
    using R = decltype(fn(items.front(), std::size_t{0}));
    // std::vector<bool> packs bits: concurrent writes to adjacent elements
    // would race on the shared word.  Return e.g. char/int instead.
    static_assert(!std::is_same_v<R, bool>, "parallel_map cannot return bool");
    std::vector<R> out(items.size());
    run_indexed(items.size(), [&](std::size_t i) { out[i] = fn(items[i], i); });
    return out;
  }

 private:
  struct WorkerQueue {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };
  struct Batch;

  /// The one fork-join behind run_indexed and run_helping.
  void fork_join(std::size_t n, const std::function<void(std::size_t)>& fn,
                 const std::function<bool()>* overlap, bool caller_drains);
  void submit(std::function<void()> task);
  void worker_loop(std::size_t worker_index);
  bool try_pop(std::size_t worker_index, std::function<void()>& task);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  /// Tasks pushed but not yet taken; written under wake_mutex_, read without
  /// it by spinning helpers.  Signed: a steal can land between a task's push
  /// and its deferred increment, making the count transiently -1.
  std::atomic<long long> queued_{0};
  bool stop_ = false;
  std::size_t next_queue_ = 0;  ///< round-robin submit cursor (guarded by wake_mutex_)
};

}  // namespace oal::common
