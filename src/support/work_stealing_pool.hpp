// WorkStealingPool — the system-wide phase-tagged executor.
//
// One fixed set of worker threads serves every concurrent pipeline run
// (every server session's CAD sweep), so total compute threads are bounded
// by the pool size no matter how many sessions exist. Each worker owns a
// deque:
//
//   * submissions from a pool worker (a task that submits follow-up work)
//     push onto that worker's own deque, and the owner pops from the back —
//     LIFO, so freshly produced work runs while its inputs are cache-hot;
//   * submissions from outside the pool (session coordinator threads) are
//     placed round-robin across the deques;
//   * a worker whose own deque is empty steals from the FRONT of another
//     worker's deque — FIFO, so thieves take the oldest (coldest, and for
//     chained work the most upstream) task, regardless of phase or of which
//     session submitted it.
//
// Determinism: the pool makes no ordering promises whatsoever, and nothing
// downstream needs one — callers reduce results on their own thread in a
// fixed order (signature-keyed result slots, serial tails), which keeps any
// schedule bit-identical to serial execution.
//
// Shutdown contract: the destructor wakes every worker and workers keep
// claiming tasks until every deque is empty, so every task submitted before
// the destructor began runs exactly once before the destructor returns;
// errors of tasks whose group is never wait()ed are swallowed by the group.
// Submitting concurrently with destruction is undefined. TaskGroup
// destructors, not the pool, enforce that an unwinding caller's tasks
// quiesce first.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "support/executor.hpp"

namespace jitise::support {

class WorkStealingPool final : public Executor {
 public:
  /// Spawns `threads` workers (0 means `default_workers()`).
  explicit WorkStealingPool(unsigned threads = 0);
  /// Drains every queued task (see the shutdown contract above), then joins.
  ~WorkStealingPool() override;

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  void submit(Phase phase, TaskGroup& group, std::function<void()> fn) override;
  [[nodiscard]] unsigned workers() const noexcept override {
    return static_cast<unsigned>(queues_.size());
  }

  /// Monotonic counters snapshot; safe to call concurrently with execution.
  [[nodiscard]] ExecutorStats stats() const;

  /// Default worker count: hardware_concurrency, at least 1.
  [[nodiscard]] static unsigned default_workers() noexcept;

 private:
  struct Task {
    Phase phase = Phase::Search;
    TaskGroup* group = nullptr;
    std::size_t id = 0;
    std::function<void()> fn;
  };
  /// One worker's deque. Heap-allocated so addresses (and the mutexes) stay
  /// stable in the vector.
  struct WorkerQueue {
    std::mutex mu;
    std::deque<Task> tasks;
  };

  void worker_loop(unsigned index);
  /// Claims one task: own deque back first (LIFO), then other deques front
  /// (FIFO steal). Returns false when every deque came up empty this pass.
  bool try_acquire(unsigned self, Task& out, bool& stolen);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> threads_;

  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;
  std::size_t unclaimed_ = 0;  // tasks pushed but not yet claimed; sleep_mu_
  bool stopping_ = false;      // guarded by sleep_mu_

  std::atomic<std::uint64_t> next_victim_{0};  // round-robin external placement
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> tasks_per_phase_[kPhaseCount] = {};
  std::atomic<unsigned> busy_{0};
  std::atomic<unsigned> occupancy_high_water_{0};
};

}  // namespace jitise::support
