#ifndef CROSSMINE_COMMON_THREAD_POOL_H_
#define CROSSMINE_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace crossmine {

/// A small reusable fork-join worker pool.
///
/// A pool of `num_threads` execution lanes runs batches of independent
/// tasks submitted through `RunTasks`. The calling thread always
/// participates as worker 0, so a pool created with `num_threads == 1`
/// spawns no threads at all and `RunTasks` degenerates to a plain inline
/// loop — callers get the exact sequential code path for free.
///
/// Tasks within one batch are claimed dynamically (an atomic cursor), so
/// uneven task costs balance across workers. Every task receives the index
/// of the worker running it (`0 <= worker < num_threads`), which callers
/// use to select per-worker scratch state. `RunTasks` returns only after
/// every task has finished *and* every woken worker has left the batch, so
/// the task vector may live on the caller's stack.
///
/// The pool itself imposes no ordering between tasks of a batch; callers
/// that need deterministic results should write each task's output to a
/// task-indexed slot and reduce sequentially after `RunTasks` returns.
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` lanes (values < 1 are clamped to 1).
  /// `num_threads - 1` threads are spawned; the caller is the last lane.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Runs `tasks[i](worker)` for every i and blocks until all complete.
  /// Must not be called concurrently from multiple threads, and tasks must
  /// not call back into `RunTasks` on the same pool. Returns true when the
  /// batch ran; returns false — without running any task — when the pool
  /// has been `Shutdown()`, so callers racing a drain can tell "rejected"
  /// apart from "completed" instead of losing work silently.
  bool RunTasks(const std::vector<std::function<void(int)>>& tasks);

  /// Begins shutdown: a batch already in flight runs to completion, every
  /// later `RunTasks` is rejected (returns false), and all worker threads
  /// are joined before `Shutdown` returns. Idempotent; the destructor calls
  /// it. Safe to call from a thread other than the one inside `RunTasks` —
  /// this is the server-drain ordering (drain dispatcher, then pool).
  void Shutdown();

  /// Number of hardware threads (at least 1).
  static int HardwareConcurrency();

  /// Maps a user-facing thread-count knob to an actual lane count:
  /// `requested <= 0` means "use hardware concurrency".
  static int Resolve(int requested);

  /// True on a pool's worker threads and on a caller while it runs its own
  /// batch inside `RunTasks` (of any pool, the 1-lane pool included).
  /// Callers use it to stay sequential instead of nesting a second level
  /// of lanes under one that already fills the cores.
  static bool InsideTask();

 private:
  void WorkerLoop(int worker);
  void DrainBatch(int worker, const std::vector<std::function<void(int)>>* batch,
                  size_t size);

  const int num_threads_;

  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  const std::vector<std::function<void(int)>>* batch_ = nullptr;  // guarded by mu_
  size_t batch_size_ = 0;      // guarded by mu_
  size_t pending_ = 0;         // tasks not yet finished, guarded by mu_
  int workers_in_batch_ = 0;   // woken workers still touching batch_, guarded by mu_
  uint64_t generation_ = 0;    // bumped per batch, guarded by mu_
  bool stop_ = false;          // guarded by mu_
  std::atomic<size_t> next_{0};

  std::vector<std::thread> workers_;
};

}  // namespace crossmine

#endif  // CROSSMINE_COMMON_THREAD_POOL_H_
