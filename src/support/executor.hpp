// Executor — the phase-tagged task-submission interface the pipeline's
// parallel work runs through.
//
// The specialization pipeline fans out one kind of work: the per-candidate
// CAD chain (`Phase::Cad`); candidate search runs serially on the session
// thread. `Phase::Search` and `Phase::Estimate` remain as tags for other
// submitters (the bench drivers tag whole-app tasks `Search`) and keep the
// per-phase counters' layout stable. A stage never owns threads; it submits
// tagged tasks to an Executor it borrows — either a pipeline-private pool
// (direct `specialize()` calls) or the server-wide WorkStealingPool shared
// by every tenant session. The tag is scheduling metadata (observability,
// steal accounting); it never affects results, because all order-sensitive
// reduction happens on the submitting thread (signature-keyed result slots
// and the stages' serial tails).
//
// Completion is tracked per TaskGroup, not per executor, so many sessions
// can share one executor and each still has a private "my batch is done"
// barrier with deterministic error semantics (lowest-task-id rethrow).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <vector>

namespace jitise::support {

/// What kind of pipeline work a task performs. Purely scheduling metadata —
/// execution order and results never depend on it.
enum class Phase : std::uint8_t { Search = 0, Estimate = 1, Cad = 2 };
inline constexpr std::size_t kPhaseCount = 3;

[[nodiscard]] constexpr const char* phase_label(Phase phase) noexcept {
  switch (phase) {
    case Phase::Search: return "search";
    case Phase::Estimate: return "estimate";
    case Phase::Cad: return "cad";
  }
  return "?";
}

/// Aggregate executor counters (one snapshot; monotonic over the executor's
/// lifetime). `steals` counts tasks a worker executed out of another
/// worker's deque; `occupancy_high_water` is the maximum number of workers
/// that were ever executing tasks at the same instant.
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
/// that makes borrowing a long-lived shared executor safe.
class TaskGroup {
 public:
  TaskGroup() = default;
  ~TaskGroup() {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return finished_ == begun_; });
  }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Registers a task; returns its id — dense, 0-based, in submission order
  /// within the current batch.
  [[nodiscard]] std::size_t begin_task() {
    std::lock_guard<std::mutex> lock(mu_);
    errors_.emplace_back(nullptr);
    return begun_++;
  }

  /// Marks task `id` finished; `error` (may be null) is kept for `wait()`.
  void finish_task(std::size_t id, std::exception_ptr error) noexcept {
    std::lock_guard<std::mutex> lock(mu_);
    if (error) errors_[id] = std::move(error);
    if (++finished_ == begun_) done_cv_.notify_all();
  }

  /// Blocks until every begun task finished, then resets the batch. If any
  /// task threw, rethrows the exception of the lowest task id.
  void wait() {
    std::exception_ptr first;
    {
      std::unique_lock<std::mutex> lock(mu_);
      done_cv_.wait(lock, [this] { return finished_ == begun_; });
      for (std::exception_ptr& e : errors_) {
        if (e) {
          first = std::move(e);
          break;
        }
      }
      begun_ = 0;
      finished_ = 0;
      errors_.clear();
    }
    if (first) std::rethrow_exception(first);
  }

 private:
  std::mutex mu_;
  std::condition_variable done_cv_;
  std::vector<std::exception_ptr> errors_;  // slot per task id in the batch
  std::size_t begun_ = 0;
  std::size_t finished_ = 0;
};

/// Abstract phase-tagged task submitter. `submit` never blocks on the
/// task's execution and never runs the task inline on the calling thread;
/// completion is observed through the TaskGroup. Tasks must not call
/// TaskGroup::wait (or otherwise block on other submitted tasks finishing)
/// from inside a task — only external coordinator threads may block.
class Executor {
 public:
  virtual ~Executor() = default;
  virtual void submit(Phase phase, TaskGroup& group,
                      std::function<void()> fn) = 0;
  /// Worker-thread count — how wide submitted batches can actually run.
  [[nodiscard]] virtual unsigned workers() const noexcept = 0;
};

}  // namespace jitise::support
