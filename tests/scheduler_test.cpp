// Scheduler stress suite for support::ThreadPool and TaskGroup — the
// execution substrate the CAD sweep and the bench drivers run on.
//
// Three layers of coverage:
//   * unit contracts: every submitted task runs exactly once, tasks start in
//     submission order, a task's nested submission runs on an idle worker,
//     phase counters and occupancy stats are wired, the default width is at
//     least one worker, the destructor drains, and TaskGroup keeps its error
//     contract (lowest-task-id rethrow, batch reset, draining destructor);
//   * randomized stress: N concurrent sessions each submit a seeded
//     Search→Estimate→Cad task graph into ONE shared pool; per-session
//     checksums must be bit-identical to a serial evaluation of the same
//     graph, with no lost or duplicated tasks even when sessions cancel
//     mid-flight (tasks already queued still run exactly once — the same
//     guarantee the server relies on when a deadline expires mid-sweep);
//   * real-pipeline differential: two concurrent specialization pipelines
//     borrowing one shared pool produce results bit-identical to serial
//     jit::specialize, for whatever worker count JITISE_JOBS dictates.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/app.hpp"
#include "jit/pipeline.hpp"
#include "jit/specializer.hpp"
#include "support/thread_pool.hpp"
#include "vm/interpreter.hpp"

namespace {

using namespace jitise;
using support::Phase;
using support::TaskGroup;
using support::ThreadPool;

/// splitmix64 — the deterministic "work" every synthetic task performs.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  constexpr std::size_t kTasks = 500;
  ThreadPool pool(4);
  EXPECT_EQ(pool.workers(), 4u);
  std::vector<std::atomic<int>> runs(kTasks);
  TaskGroup group;
  for (std::size_t k = 0; k < kTasks; ++k) {
    pool.submit(static_cast<Phase>(k % support::kPhaseCount), group,
                [&runs, k] { ++runs[k]; });
  }
  group.wait();
  for (std::size_t k = 0; k < kTasks; ++k)
    EXPECT_EQ(runs[k].load(), 1) << "task " << k;

  const support::ExecutorStats stats = pool.stats();
  EXPECT_EQ(stats.total_tasks(), kTasks);
  for (std::size_t p = 0; p < support::kPhaseCount; ++p)
    EXPECT_GE(stats.tasks_per_phase[p], kTasks / support::kPhaseCount);
  EXPECT_EQ(stats.workers, 4u);
  EXPECT_GE(stats.occupancy_high_water, 1u);
}

// One worker, held inside the first task until every task is queued: the
// rest must then start in the order they were submitted (the pipeline's
// largest-first CAD dispatch relies on it).
TEST(ThreadPool, StartsTasksInSubmissionOrder) {
  constexpr int kTasks = 16;
  ThreadPool pool(1);
  std::atomic<bool> release{false};
  std::vector<int> order;  // written only by the one worker
  TaskGroup group;
  for (int k = 0; k < kTasks; ++k) {
    pool.submit(Phase::Cad, group, [&, k] {
      if (k == 0)
        while (!release) std::this_thread::yield();
      order.push_back(k);
    });
  }
  release = true;
  group.wait();

  std::vector<int> expected(kTasks);
  for (int k = 0; k < kTasks; ++k) expected[k] = k;
  EXPECT_EQ(order, expected);
}

// Worker A runs a parent task that nested-submits a child (queued at the
// back) and then spins until the child has run. A is occupied, so the child
// can only run on the other worker. This is the one place a task may block
// on another task: the test guarantees an idle worker exists, which general
// pipeline code cannot.
TEST(ThreadPool, NestedSubmitRunsOnIdleWorker) {
  ThreadPool pool(2);

  std::atomic<bool> child_ran{false};
  TaskGroup group;
  pool.submit(Phase::Search, group, [&] {
    pool.submit(Phase::Estimate, group, [&] { child_ran = true; });
    while (!child_ran) std::this_thread::yield();
  });
  group.wait();

  EXPECT_TRUE(child_ran);
  const support::ExecutorStats stats = pool.stats();
  EXPECT_EQ(stats.total_tasks(), 2u);
  EXPECT_EQ(stats.tasks_per_phase[static_cast<std::size_t>(Phase::Search)], 1u);
  EXPECT_EQ(stats.tasks_per_phase[static_cast<std::size_t>(Phase::Estimate)],
            1u);
  EXPECT_GE(stats.occupancy_high_water, 2u);  // both workers ran at once
}

TEST(ThreadPool, DestructorDrainsQueuedTasksWithoutWait) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);  // single worker: tasks 1..31 queued behind 0
    TaskGroup group;
    for (int k = 0; k < 32; ++k) {
      pool.submit(Phase::Cad, group, [&ran, k] {
        if (k == 0) std::this_thread::sleep_for(std::chrono::milliseconds(20));
        ++ran;
      });
    }
    // No group.wait(): pool destruction alone must run the queued 31, and
    // the group's own destructor must not return before they finish.
  }
  EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPool, DefaultWorkersIsAtLeastOne) {
  EXPECT_GE(ThreadPool::default_workers(), 1u);
  ThreadPool pool;  // 0 workers means default_workers()
  EXPECT_EQ(pool.workers(), ThreadPool::default_workers());
}

TEST(TaskGroup, RethrowsLowestTaskIdAcrossWorkers) {
  ThreadPool pool(8);
  TaskGroup group;
  std::atomic<int> ran{0};
  for (int k = 0; k < 100; ++k) {
    pool.submit(Phase::Search, group, [&ran, k] {
      ++ran;
      if (k == 17 || k == 3)
        throw std::runtime_error("task " + std::to_string(k));
    });
  }
  try {
    group.wait();
    FAIL() << "wait must rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 3");  // lowest id, not completion order
  }
  EXPECT_EQ(ran.load(), 100);  // the failing batch still ran to completion
}

TEST(TaskGroup, ResetsBetweenBatches) {
  ThreadPool pool(3);
  TaskGroup group;
  for (int round = 0; round < 3; ++round) {
    std::atomic<int> sum{0};
    for (int k = 1; k <= 10; ++k)
      pool.submit(Phase::Estimate, group, [&sum, k] { sum += k; });
    group.wait();
    EXPECT_EQ(sum.load(), 55) << "round " << round;
  }
}

TEST(TaskGroup, DestructorWaitsForOutstandingTasksAndSwallowsErrors) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  {
    TaskGroup group;
    for (int k = 0; k < 8; ++k) {
      pool.submit(Phase::Cad, group, [&ran] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        ++ran;
        throw std::runtime_error("never observed");
      });
    }
    // Unwinds here with all tasks in flight, as a throwing pipeline would.
  }
  EXPECT_EQ(ran.load(), 8);  // destructor returned only after quiescence
}

// --- Randomized N-sessions x M-phases stress --------------------------------

struct SessionResult {
  std::uint64_t checksum = 0;
  std::size_t tasks_submitted = 0;
};

/// One session's seeded task graph: `roots` Search tasks, each chaining an
/// Estimate task, each chaining a Cad task (M=3 phases deep). Each leaf
/// deposits into its own slot — the reduction is positional, like the
/// pipeline's pre-created CAD result slots — and the checksum folds slots in
/// index order on the session thread. `cancel_at` < roots simulates a
/// deadline/cancel firing mid-run: every task past that index still executes
/// (it must — it was already submitted; losing it would hang the group) but
/// reports a fixed "cancelled" sentinel instead of results, the way a
/// cancelled pipeline block does. The decision is per-index so the outcome
/// stays schedule-independent; the atomic models the signal itself and the
/// run-count assertions below are what cancellation must not break.
SessionResult run_session_graph(ThreadPool* pool,
                                std::uint64_t seed, std::size_t roots,
                                std::size_t cancel_at,
                                std::atomic<std::uint64_t>* executions) {
  std::vector<std::uint64_t> slots(roots, 0);
  std::vector<std::atomic<int>> per_task_runs(roots * 3);
  std::atomic<bool> cancelled{false};
  SessionResult out;
  out.tasks_submitted = roots * 3;
  {
    TaskGroup group;
    for (std::size_t i = 0; i < roots; ++i) {
      pool->submit(Phase::Search, group, [&, i] {
        ++per_task_runs[i * 3];
        if (executions) ++*executions;
        if (i >= cancel_at) cancelled = true;
        const std::uint64_t h1 = i > cancel_at ? 0xDEADull : mix(seed ^ i);
        pool->submit(Phase::Estimate, group, [&, i, h1] {
          ++per_task_runs[i * 3 + 1];
          if (executions) ++*executions;
          const std::uint64_t h2 = mix(h1 + 1);
          pool->submit(Phase::Cad, group, [&, i, h2] {
            ++per_task_runs[i * 3 + 2];
            if (executions) ++*executions;
            slots[i] = mix(h2 + 2);
          });
        });
      });
    }
    group.wait();
  }
  for (int run_count : std::vector<int>(per_task_runs.begin(),
                                        per_task_runs.end()))
    EXPECT_EQ(run_count, 1);  // no lost, no duplicated tasks
  for (std::size_t i = 0; i < roots; ++i)
    out.checksum = mix(out.checksum ^ slots[i]);
  return out;
}

/// Serial oracle for the same graph (no pool, no threads).
std::uint64_t serial_graph_checksum(std::uint64_t seed, std::size_t roots,
                                    std::size_t cancel_at) {
  std::uint64_t checksum = 0;
  std::vector<std::uint64_t> slots(roots, 0);
  for (std::size_t i = 0; i < roots; ++i) {
    const std::uint64_t h1 = i > cancel_at ? 0xDEADull : mix(seed ^ i);
    slots[i] = mix(mix(h1 + 1) + 2);
  }
  for (std::size_t i = 0; i < roots; ++i) checksum = mix(checksum ^ slots[i]);
  return checksum;
}

// Many sessions sharing ONE pool, their tasks interleaved across phases and
// sessions, and every session's positional reduction still matches its
// serial oracle bit for bit — including
// sessions that cancel mid-graph. The global execution counter proves the
// pool neither lost nor invented tasks across the whole run.
TEST(SchedulerStress, SeededSessionGraphsMatchSerialUnderSharedPool) {
  constexpr unsigned kSessions = 6;
  constexpr std::size_t kRoots = 40;
  constexpr int kRounds = 5;

  for (int round = 0; round < kRounds; ++round) {
    ThreadPool pool(4);
    std::atomic<std::uint64_t> executions{0};
    std::vector<SessionResult> results(kSessions);
    std::vector<std::thread> coordinators;
    for (unsigned s = 0; s < kSessions; ++s) {
      coordinators.emplace_back([&, s] {
        const std::uint64_t seed = mix(0xA5EEDull + round * 97 + s);
        // A third of the sessions cancel partway through the graph.
        const std::size_t cancel_at = s % 3 == 0 ? kRoots / 3 : kRoots;
        results[s] =
            run_session_graph(&pool, seed, kRoots, cancel_at, &executions);
      });
    }
    for (auto& t : coordinators) t.join();

    std::size_t submitted = 0;
    for (unsigned s = 0; s < kSessions; ++s) {
      submitted += results[s].tasks_submitted;
      const std::uint64_t seed = mix(0xA5EEDull + round * 97 + s);
      const std::size_t cancel_at = s % 3 == 0 ? kRoots / 3 : kRoots;
      EXPECT_EQ(results[s].checksum,
                serial_graph_checksum(seed, kRoots, cancel_at))
          << "round " << round << " session " << s;
    }
    EXPECT_EQ(executions.load(), submitted);
    EXPECT_EQ(pool.stats().total_tasks(), submitted);
  }
}

// --- Real-pipeline differential ---------------------------------------------

struct ProfiledApp {
  std::shared_ptr<apps::App> app;
  vm::Profile profile;
};

ProfiledApp profiled_app(const std::string& name) {
  ProfiledApp p;
  p.app = std::make_shared<apps::App>(apps::build_app(name));
  vm::Machine machine(p.app->module);
  machine.run(p.app->entry, p.app->datasets[0].args, 1ull << 30);
  p.profile = machine.profile();
  return p;
}

void expect_same_result(const jit::SpecializationResult& a,
                        const jit::SpecializationResult& b,
                        const std::string& label) {
  ASSERT_EQ(a.implemented.size(), b.implemented.size()) << label;
  for (std::size_t k = 0; k < a.implemented.size(); ++k) {
    EXPECT_EQ(a.implemented[k].signature, b.implemented[k].signature) << label;
    EXPECT_EQ(a.implemented[k].bitstream_bytes, b.implemented[k].bitstream_bytes)
        << label;
    EXPECT_EQ(a.implemented[k].hw_cycles, b.implemented[k].hw_cycles) << label;
    EXPECT_EQ(a.implemented[k].cache_hit, b.implemented[k].cache_hit) << label;
  }
  EXPECT_DOUBLE_EQ(a.sum_total_s, b.sum_total_s) << label;
  EXPECT_DOUBLE_EQ(a.predicted_speedup, b.predicted_speedup) << label;
}

// Two pipelines running CONCURRENTLY on one borrowed pool (each with its own
// caches, as distinct tenants have) must each match a serial specialize of
// the same app. JITISE_JOBS sweeps the width in CI (TSan leg runs at 8).
TEST(SchedulerStress, ConcurrentPipelinesOnSharedPoolMatchSerial) {
  unsigned jobs = 4;
  if (const char* env = std::getenv("JITISE_JOBS"))
    jobs = static_cast<unsigned>(std::max(1, std::atoi(env)));

  const std::vector<std::string> names = {"adpcm", "fft"};
  std::vector<ProfiledApp> apps_v;
  for (const auto& n : names) apps_v.push_back(profiled_app(n));

  // Serial oracle, fresh caches per app. Pruning off: every executed block
  // is searched, not just the one hot block these apps prune to.
  std::vector<jit::SpecializationResult> serial;
  for (const auto& p : apps_v) {
    jit::SpecializerConfig config;
    config.jobs = 1;
    config.prune = ise::PruneConfig::none();
    serial.push_back(jit::specialize(p.app->module, p.profile, config));
  }

  ThreadPool pool(jobs);
  std::vector<jit::SpecializationResult> shared(apps_v.size());
  std::vector<std::thread> coordinators;
  for (std::size_t i = 0; i < apps_v.size(); ++i) {
    coordinators.emplace_back([&, i] {
      jit::SpecializerConfig config;
      config.jobs = jobs;
      config.prune = ise::PruneConfig::none();
      jit::SpecializationPipeline pipeline(config, nullptr, nullptr, &pool);
      shared[i] = pipeline.run(apps_v[i].app->module, apps_v[i].profile);
    });
  }
  for (auto& t : coordinators) t.join();

  for (std::size_t i = 0; i < names.size(); ++i)
    expect_same_result(serial[i], shared[i], names[i]);
  EXPECT_GT(pool.stats().total_tasks(), 0u);
}

}  // namespace
