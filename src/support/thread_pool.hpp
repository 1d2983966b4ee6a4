// ThreadPool — the one pool of worker threads all parallel work runs on.
//
// What runs here is coarse: each selected candidate's CAD chain
// (`Phase::Cad`, 2–300 ms each, submitted by pipeline or server-session
// threads) and `bench::run_apps`' whole-app tasks. So the pool is one
// mutex-guarded FIFO queue: workers pop from the front, and a task that
// submits further tasks queues them at the back. Tasks start in submission
// order, which lets a submitter choose its schedule (the pipeline submits
// its CAD sweep largest estimated design first). Results never depend on
// that order: callers reduce on their own thread in a fixed order
// (signature-keyed result slots, serial tails), so any schedule is
// bit-identical to serial execution.
//
// Completion is tracked per TaskGroup, not per pool, so many sessions can
// share one pool and each still has a private "my batch is done" barrier
// with deterministic error semantics (lowest-task-id rethrow). A submitter
// that waits through `ThreadPool::wait` does not idle: it takes its own
// group's queued tasks, oldest first, and runs them on its own thread
// until none is left, then blocks only for the ones workers hold. So a
// batch runs on up to `workers() + 1` threads, and a private pool needs one
// worker fewer than the width it wants.
//
// Shutdown contract: the destructor wakes every worker, and workers keep
// taking tasks until the queue is empty, so every task submitted before the
// destructor returns (including tasks submitted by tasks) runs exactly once;
// errors of tasks whose group is never wait()ed are swallowed by the group.
// Submitting from outside the pool concurrently with destruction is
// undefined. TaskGroup destructors, not the pool, enforce that an unwinding
// caller's tasks quiesce first.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace jitise::support {

/// What kind of work a task performs. Only the per-phase counters read it.
enum class Phase : std::uint8_t { Search = 0, Estimate = 1, Cad = 2 };
inline constexpr std::size_t kPhaseCount = 3;

/// Pool counters (monotonic over the pool's lifetime). `tasks_per_phase`
/// counts every task the pool ran, on a worker or on a thread helping in
/// `ThreadPool::wait`; `occupancy_high_water` is the maximum number of such
/// threads that were ever executing tasks at the same instant, so it can
/// exceed `workers`. `steals` is always 0 — the pool has one shared queue —
/// and stays only for readers of the old layout.
struct ExecutorStats {
  std::uint64_t tasks_per_phase[kPhaseCount] = {0, 0, 0};
  std::uint64_t steals = 0;
  unsigned workers = 0;
  unsigned occupancy_high_water = 0;

  [[nodiscard]] std::uint64_t total_tasks() const noexcept {
    std::uint64_t sum = 0;
    for (std::uint64_t n : tasks_per_phase) sum += n;
    return sum;
  }
};

/// Per-batch completion tracker. A group hands out dense 0-based task ids
/// and `wait()` blocks until every begun task finished, then rethrows the
/// exception of the lowest task id (never completion order) and resets for
/// the next batch.
///
/// The destructor waits for every outstanding task (swallowing their
/// errors), so a group on an unwinding stack frame quiesces all tasks that
/// reference that frame before it disappears — the key lifetime guarantee
/// that makes borrowing a long-lived shared pool safe.
class TaskGroup {
 public:
  TaskGroup() = default;
  TaskGroup(const TaskGroup&) = delete;  // tasks hold its address
  TaskGroup& operator=(const TaskGroup&) = delete;
  ~TaskGroup() {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return finished_ == begun_; });
  }

  /// Registers a task; returns its id — dense, 0-based, in submission order
  /// within the current batch.
  [[nodiscard]] std::size_t begin_task() {
    std::lock_guard<std::mutex> lock(mu_);
    return begun_++;
  }

  /// Marks task `id` finished; `error` (may be null) is kept for `wait()`.
  void finish_task(std::size_t id, std::exception_ptr error) noexcept {
    std::lock_guard<std::mutex> lock(mu_);
    if (error && (!first_error_ || id < first_error_id_)) {
      first_error_ = std::move(error);
      first_error_id_ = id;
    }
    if (++finished_ == begun_) done_cv_.notify_all();
  }

  /// Blocks until every begun task finished, then resets the batch. If any
  /// task threw, rethrows the exception of the lowest task id.
  void wait() {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return finished_ == begun_; });
    begun_ = finished_ = 0;
    if (first_error_) std::rethrow_exception(std::exchange(first_error_, {}));
  }

 private:
  std::mutex mu_;
  std::condition_variable done_cv_;
  std::exception_ptr first_error_;  // error of the lowest failed task id
  std::size_t first_error_id_ = 0;
  std::size_t begun_ = 0;
  std::size_t finished_ = 0;
};

class ThreadPool {
 public:
  /// Spawns `threads` workers (0 means `default_workers()`).
  explicit ThreadPool(unsigned threads = 0);
  ThreadPool(const ThreadPool&) = delete;  // workers hold its address
  ThreadPool& operator=(const ThreadPool&) = delete;
  /// Runs every queued task (see the shutdown contract above), then joins.
  ~ThreadPool();

  /// Queues `fn` at the back. Never blocks on the task's execution and
  /// never runs it inline; completion is observed through `group`. A task
  /// must not wait on other tasks of the pool (either `wait`) — only
  /// threads outside the pool may block on a group.
  void submit(Phase phase, TaskGroup& group, std::function<void()> fn);
  /// `group.wait()` with the calling thread helping: while any task of
  /// `group` is still queued, takes the oldest one and runs it here, with
  /// the workers' error capture and completion; then blocks for the tasks
  /// workers hold. Other groups' tasks are left in the queue.
  void wait(TaskGroup& group);
  /// Worker-thread count — how wide submitted batches can actually run,
  /// plus the caller for a batch it waits on through `wait`.
  [[nodiscard]] unsigned workers() const noexcept {
    return static_cast<unsigned>(threads_.size());
  }
  /// Counters snapshot; safe to call concurrently with execution.
  [[nodiscard]] ExecutorStats stats() const;
  /// Default worker count: hardware_concurrency, at least 1.
  [[nodiscard]] static unsigned default_workers() noexcept;

 private:
  struct Task {
    Phase phase;
    TaskGroup* group;
    std::size_t id;
    std::function<void()> fn;
  };

  void worker_loop();
  /// Runs `task` on the calling thread and publishes its completion;
  /// `lock` (on `mu_`) is held on entry and on return, released meanwhile.
  void run(Task task, std::unique_lock<std::mutex>& lock);

  mutable std::mutex mu_;  // guards everything below but threads_
  std::condition_variable work_cv_;
  std::deque<Task> queue_;
  bool stopping_ = false;
  unsigned busy_ = 0;    // threads running a task right now
  ExecutorStats stats_;  // all but `workers`
  std::vector<std::thread> threads_;
};

}  // namespace jitise::support
