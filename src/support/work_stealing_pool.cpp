#include "support/work_stealing_pool.hpp"

#include <algorithm>
#include <utility>

namespace jitise::support {

namespace {

/// Identity of the current thread inside a pool, so nested submits land on
/// the submitting worker's own deque (the LIFO fast path).
struct WorkerIdentity {
  const WorkStealingPool* pool = nullptr;
  unsigned index = 0;
};
thread_local WorkerIdentity tls_worker;

}  // namespace

unsigned WorkStealingPool::default_workers() noexcept {
  return std::max(1u, std::thread::hardware_concurrency());
}

WorkStealingPool::WorkStealingPool(unsigned threads) {
  const unsigned n = threads == 0 ? default_workers() : threads;
  queues_.reserve(n);
  for (unsigned i = 0; i < n; ++i)
    queues_.emplace_back(std::make_unique<WorkerQueue>());
  threads_.reserve(n);
  for (unsigned i = 0; i < n; ++i)
    threads_.emplace_back([this, i] { worker_loop(i); });
}

WorkStealingPool::~WorkStealingPool() {
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    stopping_ = true;
  }
  sleep_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
  // The drain contract: workers only exit once every submitted task was
  // claimed, and each claimant runs its task before re-checking — so all
  // deques are empty here.
}

void WorkStealingPool::submit(Phase phase, TaskGroup& group,
                              std::function<void()> fn) {
  Task task;
  task.phase = phase;
  task.group = &group;
  task.id = group.begin_task();
  task.fn = std::move(fn);

  unsigned target;
  if (tls_worker.pool == this) {
    target = tls_worker.index;  // nested submit: own deque, popped LIFO
  } else {
    target = static_cast<unsigned>(
        next_victim_.fetch_add(1, std::memory_order_relaxed) % queues_.size());
  }
  {
    std::lock_guard<std::mutex> lock(queues_[target]->mu);
    queues_[target]->tasks.push_back(std::move(task));
  }
  // The unclaimed count is guarded by the same mutex the sleep predicate
  // reads under, so a parking worker either observes this increment in its
  // predicate or is already blocked when the notify fires — no lost wakeup.
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    ++unclaimed_;
  }
  sleep_cv_.notify_one();
}

bool WorkStealingPool::try_acquire(unsigned self, Task& out, bool& stolen) {
  {
    WorkerQueue& own = *queues_[self];
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.tasks.empty()) {
      out = std::move(own.tasks.back());  // LIFO: newest local work first
      own.tasks.pop_back();
      stolen = false;
      return true;
    }
  }
  const unsigned n = static_cast<unsigned>(queues_.size());
  for (unsigned k = 1; k < n; ++k) {
    WorkerQueue& victim = *queues_[(self + k) % n];
    std::lock_guard<std::mutex> lock(victim.mu);
    if (!victim.tasks.empty()) {
      out = std::move(victim.tasks.front());  // FIFO steal: oldest task
      victim.tasks.pop_front();
      stolen = true;
      return true;
    }
  }
  return false;
}

void WorkStealingPool::worker_loop(unsigned index) {
  tls_worker = WorkerIdentity{this, index};
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(sleep_mu_);
      sleep_cv_.wait(lock, [this] { return stopping_ || unclaimed_ > 0; });
      if (unclaimed_ == 0) return;  // stopping, and every task is claimed
      --unclaimed_;                 // claim one task (it exists in some deque)
    }
    Task task;
    bool stolen = false;
    // The claim above guarantees a task is (or will momentarily be) in some
    // deque: deque sizes always sum to unclaimed + in-progress claims. A
    // single scan can still miss — a concurrent thief may take the task we
    // would have found while a fresh push lands behind us — so retry.
    while (!try_acquire(index, task, stolen)) std::this_thread::yield();

    const unsigned busy = busy_.fetch_add(1, std::memory_order_relaxed) + 1;
    unsigned seen = occupancy_high_water_.load(std::memory_order_relaxed);
    while (busy > seen && !occupancy_high_water_.compare_exchange_weak(
                              seen, busy, std::memory_order_relaxed)) {
    }
    std::exception_ptr error;
    try {
      task.fn();
    } catch (...) {
      error = std::current_exception();
    }
    task.fn = nullptr;  // release captures before completion is published
    tasks_per_phase_[static_cast<std::size_t>(task.phase)].fetch_add(
        1, std::memory_order_relaxed);
    if (stolen) steals_.fetch_add(1, std::memory_order_relaxed);
    busy_.fetch_sub(1, std::memory_order_relaxed);
    task.group->finish_task(task.id, std::move(error));
  }
}

ExecutorStats WorkStealingPool::stats() const {
  ExecutorStats s;
  for (std::size_t p = 0; p < kPhaseCount; ++p)
    s.tasks_per_phase[p] = tasks_per_phase_[p].load(std::memory_order_relaxed);
  s.steals = steals_.load(std::memory_order_relaxed);
  s.workers = workers();
  s.occupancy_high_water =
      occupancy_high_water_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace jitise::support
