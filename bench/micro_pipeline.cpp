// Micro-benchmark: pipeline-parallelism wins (ablation for DESIGN.md).
//
// BM_CandidateSearch isolates Phase 1 — the serial prune -> identify ->
// estimate -> select loop — and sweeps candidate volume (blocks per
// function). BM_Specialize runs the full specializer (CAD flow included) on
// the fft app across jobs. BM_MultiSession is the substrate A/B leg: S
// concurrent sessions specializing distinct programs either on one shared
// WorkStealingPool of W workers (pool threads = W) or on S per-session pools
// of W workers each (threads = S*W, the pre-work-stealing architecture).
#include <benchmark/benchmark.h>

#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "apps/app.hpp"
#include "ir/random_program.hpp"
#include "jit/pipeline.hpp"
#include "support/work_stealing_pool.hpp"
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
  const jit::CandidateSearchStage search(config);
  jit::PipelineObserver quiet;  // no-op sink
  hwlib::CircuitDb db;  // shared and warm across iterations, as in the JIT

  std::size_t candidates = 0;
  for (auto _ : state) {
    const jit::SearchArtifact art =
        search.run(prog.module, prog.profile, db, quiet);
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

/// Substrate A/B: `sessions` concurrent pipelines over distinct programs.
/// shared=1 borrows one WorkStealingPool of `workers` threads for all of
/// them; shared=0 lets every pipeline spin up its own pool of the same
/// width, so thread count scales with session count (the old architecture).
void BM_MultiSession(benchmark::State& state) {
  const auto sessions = static_cast<unsigned>(state.range(0));
  const bool shared = state.range(1) != 0;
  const unsigned workers = 4;

  std::vector<ProfiledProgram> programs;
  for (unsigned s = 0; s < sessions; ++s)
    programs.push_back(make_program(8, /*salt=*/s + 1));

  std::optional<support::WorkStealingPool> pool;
  if (shared) pool.emplace(workers);

  for (auto _ : state) {
    std::vector<std::thread> coordinators;
    coordinators.reserve(sessions);
    for (unsigned s = 0; s < sessions; ++s) {
      coordinators.emplace_back([&, s] {
        jit::SpecializerConfig config;
        config.jobs = workers;
        jit::SpecializationPipeline pipeline(config, nullptr, nullptr,
                                             shared ? &*pool : nullptr);
        auto result = pipeline.run(programs[s].module, programs[s].profile);
        benchmark::DoNotOptimize(result);
      });
    }
    for (auto& t : coordinators) t.join();
  }
  if (pool) {
    const support::ExecutorStats s = pool->stats();
    state.counters["steals"] = static_cast<double>(s.steals);
    state.counters["occupancy_hw"] = static_cast<double>(s.occupancy_high_water);
  }
}
BENCHMARK(BM_MultiSession)
    ->ArgsProduct({{2, 4, 8}, {0, 1}})
    ->ArgNames({"sessions", "shared"})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
