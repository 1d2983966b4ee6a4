#include "support/thread_pool.hpp"

#include <algorithm>
#include <utility>

namespace jitise::support {

unsigned ThreadPool::default_workers() noexcept {
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(unsigned threads) {
  const unsigned n = threads == 0 ? default_workers() : threads;
  threads_.reserve(n);
  for (unsigned i = 0; i < n; ++i)
    threads_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::submit(Phase phase, TaskGroup& group,
                        std::function<void()> fn) {
  Task task{phase, &group, group.begin_task(), std::move(fn)};
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::wait(TaskGroup& group) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    const auto own = std::find_if(
        queue_.begin(), queue_.end(),
        [&](const Task& t) { return t.group == &group; });
    if (own == queue_.end()) break;
    Task task = std::move(*own);
    queue_.erase(own);
    run(std::move(task), lock);
  }
  lock.unlock();
  group.wait();
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    // A worker leaves only once stopping and the queue is empty; a worker
    // still running a task comes back here, so tasks it submits still run.
    if (queue_.empty()) return;
    Task task = std::move(queue_.front());
    queue_.pop_front();
    run(std::move(task), lock);
  }
}

void ThreadPool::run(Task task, std::unique_lock<std::mutex>& lock) {
  stats_.occupancy_high_water = std::max(stats_.occupancy_high_water, ++busy_);
  lock.unlock();

  std::exception_ptr error;
  try {
    task.fn();
  } catch (...) {
    error = std::current_exception();
  }
  task.fn = nullptr;  // release captures before completion is published

  lock.lock();
  --busy_;
  ++stats_.tasks_per_phase[static_cast<std::size_t>(task.phase)];
  lock.unlock();
  task.group->finish_task(task.id, std::move(error));
  lock.lock();
}

ExecutorStats ThreadPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ExecutorStats s = stats_;
  s.workers = workers();
  return s;
}

}  // namespace jitise::support
