// Micro-benchmark: pipeline-parallelism wins (ablation for DESIGN.md).
//
// BM_CandidateSearch isolates Phase 1 — the serial prune -> identify ->
// estimate -> select loop — and sweeps candidate volume (blocks per
// function). BM_Specialize runs the full specializer (CAD flow included) on
// the fft app across jobs; `jobs` counts the calling thread, which runs
// queued CAD chains while it waits, so `jobs:2` is one pool worker plus the
// caller. BM_ColdSpecialize runs one cold specialization of whetstone or
// 444.namd on a borrowed 2-worker pool, the specialization server's default
// shape, timed in real time: the sweep runs on the two workers and the
// calling thread. BM_MultiSession runs S concurrent sessions specializing
// distinct programs on one shared ThreadPool of W workers, as the
// specialization server does.
#include <benchmark/benchmark.h>

#include <memory>
#include <thread>
#include <vector>

#include "apps/app.hpp"
#include "ir/random_program.hpp"
#include "jit/pipeline.hpp"
#include "support/thread_pool.hpp"
#include "vm/interpreter.hpp"

using namespace jitise;

namespace {

struct ProfiledProgram {
  ir::Module module;
  vm::Profile profile;
};

/// A random program sized by `blocks` with its training profile; every
/// profiled block passes pruning so candidate volume tracks program size.
ProfiledProgram make_program(std::uint32_t blocks, std::uint32_t salt = 0) {
  ir::RandomProgramConfig config;
  config.seed = 0x5EA4C4u + blocks + salt * 7919u;
  config.num_functions = 3;
  config.blocks_per_function = blocks;
  config.ops_per_block = 16;
  ProfiledProgram prog{ir::generate_random_program(config), {}};
  vm::Machine machine(prog.module);
  const vm::Slot args[] = {vm::Slot::of_int(7)};
  machine.run("main", args, 1ull << 28);
  prog.profile = machine.profile();
  return prog;
}

void BM_CandidateSearch(benchmark::State& state) {
  const auto prog = make_program(static_cast<std::uint32_t>(state.range(0)));

  jit::SpecializerConfig config;
  config.prune = ise::PruneConfig::none();
  config.implement_hardware = false;
  jit::PipelineObserver quiet;  // no-op sink
  hwlib::CircuitDb db;  // shared and warm across iterations, as in the JIT

  std::size_t candidates = 0;
  for (auto _ : state) {
    const jit::SearchArtifact art =
        jit::search_candidates(config, prog.module, prog.profile, db, quiet);
    candidates = art.scored.size();
    benchmark::DoNotOptimize(art);
  }
  state.counters["candidates"] = static_cast<double>(candidates);
}
BENCHMARK(BM_CandidateSearch)
    ->ArgsProduct({{4, 8, 16}})
    ->ArgNames({"blocks"})
    ->Unit(benchmark::kMillisecond);

void BM_Specialize(benchmark::State& state) {
  const apps::App app = apps::build_app("fft");
  vm::Machine machine(app.module);
  machine.run(app.entry, app.datasets[0].args, 1ull << 30);
  const vm::Profile profile = machine.profile();

  jit::SpecializerConfig config;
  config.jobs = static_cast<unsigned>(state.range(0));

  for (auto _ : state) {
    auto result = jit::specialize(app.module, profile, config);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_Specialize)
    ->ArgsProduct({{1, 2, 4}})
    ->ArgNames({"jobs"})
    ->Unit(benchmark::kMillisecond);

/// One cold specialization (no bitstream or estimate cache) of `app_name`
/// per iteration, on a borrowed pool of two workers like a server session.
void BM_ColdSpecialize(benchmark::State& state, const char* app_name) {
  const apps::App app = apps::build_app(app_name);
  vm::Machine machine(app.module);
  machine.run(app.entry, app.datasets[0].args, 1ull << 30);
  const vm::Profile profile = machine.profile();

  support::ThreadPool pool(2);
  const jit::SpecializerConfig config;  // jobs = 0: the borrowed pool's CAD
  for (auto _ : state) {
    jit::SpecializationPipeline pipeline(config, nullptr, nullptr, &pool);
    auto result = pipeline.run(app.module, profile);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK_CAPTURE(BM_ColdSpecialize, whetstone, "whetstone")
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_ColdSpecialize, namd, "444.namd")
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// `sessions` concurrent pipelines over distinct programs, all borrowing
/// one ThreadPool of `workers` threads.
void BM_MultiSession(benchmark::State& state) {
  const auto sessions = static_cast<unsigned>(state.range(0));
  const unsigned workers = 4;

  std::vector<ProfiledProgram> programs;
  for (unsigned s = 0; s < sessions; ++s)
    programs.push_back(make_program(8, /*salt=*/s + 1));

  support::ThreadPool pool(workers);

  for (auto _ : state) {
    std::vector<std::thread> coordinators;
    coordinators.reserve(sessions);
    for (unsigned s = 0; s < sessions; ++s) {
      coordinators.emplace_back([&, s] {
        jit::SpecializerConfig config;
        config.jobs = workers;
        jit::SpecializationPipeline pipeline(config, nullptr, nullptr, &pool);
        auto result = pipeline.run(programs[s].module, programs[s].profile);
        benchmark::DoNotOptimize(result);
      });
    }
    for (auto& t : coordinators) t.join();
  }
  state.counters["occupancy_hw"] =
      static_cast<double>(pool.stats().occupancy_high_water);
}
BENCHMARK(BM_MultiSession)
    ->ArgsProduct({{2, 4, 8}})
    ->ArgNames({"sessions"})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
