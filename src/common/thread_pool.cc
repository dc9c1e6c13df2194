#include "common/thread_pool.h"

#include <algorithm>

namespace crossmine {

namespace {

thread_local bool inside_task = false;

/// Marks the current thread as running pool tasks for one scope and
/// restores the previous state after it, so nested pools compose.
class InsideTaskScope {
 public:
  InsideTaskScope() : previous_(inside_task) { inside_task = true; }
  ~InsideTaskScope() { inside_task = previous_; }
  InsideTaskScope(const InsideTaskScope&) = delete;
  InsideTaskScope& operator=(const InsideTaskScope&) = delete;

 private:
  const bool previous_;
};

}  // namespace

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(1, num_threads)) {
  workers_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int w = 1; w < num_threads_; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  // Workers finish any batch in flight (its tasks were already claimed or
  // remain drainable by the RunTasks caller) before observing `stop_`, so
  // shutdown never strands a task — it only rejects batches not yet begun.
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
}

int ThreadPool::HardwareConcurrency() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

int ThreadPool::Resolve(int requested) {
  return requested <= 0 ? HardwareConcurrency() : requested;
}

bool ThreadPool::InsideTask() { return inside_task; }

void ThreadPool::DrainBatch(int worker,
                            const std::vector<std::function<void(int)>>* batch,
                            size_t size) {
  for (;;) {
    size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= size) return;
    (*batch)[i](worker);
    std::lock_guard<std::mutex> lock(mu_);
    if (--pending_ == 0) cv_done_.notify_all();
  }
}

bool ThreadPool::RunTasks(const std::vector<std::function<void(int)>>& tasks) {
  if (tasks.empty()) return true;
  if (workers_.empty()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_) return false;
    }
    // Sequential pool: no handoff, no synchronization — the caller just
    // runs every task in order as worker 0.
    InsideTaskScope scope;
    for (const auto& task : tasks) task(0);
    return true;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return false;
    batch_ = &tasks;
    batch_size_ = tasks.size();
    pending_ = tasks.size();
    next_.store(0, std::memory_order_relaxed);
    ++generation_;
  }
  cv_start_.notify_all();
  {
    InsideTaskScope scope;
    DrainBatch(0, &tasks, tasks.size());
  }
  std::unique_lock<std::mutex> lock(mu_);
  // Wait for the tasks to finish and for every woken worker to stop
  // touching `tasks` before letting the caller destroy it.
  cv_done_.wait(lock, [this] { return pending_ == 0 && workers_in_batch_ == 0; });
  batch_ = nullptr;
  return true;
}

void ThreadPool::WorkerLoop(int worker) {
  inside_task = true;  // a worker lane runs nothing but pool tasks
  uint64_t seen = 0;
  for (;;) {
    const std::vector<std::function<void(int)>>* batch = nullptr;
    size_t size = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_start_.wait(lock, [this, seen] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      if (pending_ == 0) continue;  // woke after the batch already finished
      batch = batch_;
      size = batch_size_;
      ++workers_in_batch_;
    }
    DrainBatch(worker, batch, size);
    std::lock_guard<std::mutex> lock(mu_);
    if (--workers_in_batch_ == 0 && pending_ == 0) cv_done_.notify_all();
  }
}

}  // namespace crossmine
