// Micro-benchmark: identification-algorithm scaling (ablation for DESIGN.md),
// plus the anytime-selection quality curve (speedup vs ISEGEN budget).
//
// Shows the paper's [9] motivation: MAXMISO is linear in the block size
// while exact convex enumeration explodes exponentially — which is why
// just-in-time ISE needs the heuristic + pruning combination.
#include <benchmark/benchmark.h>

#include "apps/app.hpp"
#include "dfg/graph.hpp"
#include "ir/builder.hpp"
#include "ise/identify.hpp"
#include "ise/isegen.hpp"
#include "jit/pipeline.hpp"
#include "support/rng.hpp"
#include "vm/interpreter.hpp"

using namespace jitise;
using namespace jitise::ir;

namespace {

/// One block with `n` feasible integer ops in a random DAG shape plus a
/// store at the end (so results escape).
Module make_block(std::size_t n, std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  Module m;
  FunctionBuilder fb(m, "f", Type::I32, {Type::I32, Type::I32, Type::Ptr});
  std::vector<ValueId> pool = {fb.param(0), fb.param(1)};
  static constexpr Opcode kOps[] = {Opcode::Add, Opcode::Sub, Opcode::Mul,
                                    Opcode::And, Opcode::Xor, Opcode::Shl};
  for (std::size_t i = 0; i < n; ++i) {
    const ValueId a = pool[rng.below(pool.size())];
    const ValueId b = pool[rng.below(pool.size())];
    pool.push_back(fb.binop(kOps[rng.below(std::size(kOps))], a, b));
    if (pool.size() > 6) pool.erase(pool.begin());
  }
  fb.store(pool.back(), fb.param(2));
  fb.ret(pool.front());
  fb.finish();
  return m;
}

void BM_MaxMiso(benchmark::State& state) {
  const Module m = make_block(static_cast<std::size_t>(state.range(0)), 42);
  const dfg::BlockDfg graph(m.functions[0], 0);
  for (auto _ : state) {
    auto result = ise::find_max_misos(graph);
    benchmark::DoNotOptimize(result);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MaxMiso)->RangeMultiplier(2)->Range(16, 512)->Complexity();

void BM_ExactEnum(benchmark::State& state) {
  const Module m = make_block(static_cast<std::size_t>(state.range(0)), 42);
  const dfg::BlockDfg graph(m.functions[0], 0);
  ise::ExactEnumConfig config;
  config.max_steps = 1u << 22;
  std::uint64_t steps = 0;
  for (auto _ : state) {
    auto result = ise::enumerate_exact(graph, config);
    steps = result.steps;
    benchmark::DoNotOptimize(result);
  }
  state.counters["search_steps"] = static_cast<double>(steps);
}
BENCHMARK(BM_ExactEnum)->DenseRange(8, 28, 4);

void BM_MisoEnum(benchmark::State& state) {
  const Module m = make_block(static_cast<std::size_t>(state.range(0)), 42);
  const dfg::BlockDfg graph(m.functions[0], 0);
  ise::MisoEnumConfig config;
  for (auto _ : state) {
    auto result = ise::enumerate_misos(graph, config);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_MisoEnum)->RangeMultiplier(2)->Range(16, 128);

/// The anytime-selection quality curve: run select_isegen over one pooled
/// real-application candidate set at increasing iteration budgets and report
/// the achieved saving. The `total_saving` counter is monotone in the budget
/// (the selector's contract) and `vs_greedy_pct` is the measured quality the
/// budget buys over the greedy seed; budget 0 prints the seed itself.
struct AppCandidatePool {
  jit::SpecializerConfig cfg;          // referenced by the stage; keep alive
  jit::SearchArtifact art;             // owns graphs + scored candidates
  ise::SelectConfig select;            // constrained so budgets bind
  double greedy_saving = 0.0;
};

AppCandidatePool& isegen_pool() {
  static AppCandidatePool* pool = [] {
    auto* p = new AppCandidatePool;
    p->cfg.implement_hardware = false;
    hwlib::CircuitDb db;
    jit::ObserverList obs;
    for (const char* name : {"188.ammp", "444.namd", "whetstone"}) {
      const apps::App app = apps::build_app(name);
      vm::Machine machine(app.module);
      machine.run(app.entry, app.datasets[0].args, 1ull << 30);
      jit::SearchArtifact art = jit::search_candidates(
          p->cfg, app.module, machine.profile(), db, obs);
      for (std::size_t i = 0; i < art.scored.size(); ++i) {
        p->art.scored.push_back(std::move(art.scored[i]));
        p->art.graph_of.push_back(p->art.graphs.size() + art.graph_of[i]);
      }
      for (auto& g : art.graphs) p->art.graphs.push_back(std::move(g));
    }
    // Constrain selection so the area/slot budgets actually bind: with the
    // default budgets greedy is already optimal on these pools and every
    // selector would tie. The fraction is over the *eligible* pool area —
    // ineligible candidates never compete for the budget.
    ise::SelectConfig unconstrained;
    unconstrained.area_budget_slices = 1e18;
    double pool_area = 0.0;
    for (const auto& sc : p->art.scored)
      if (ise::selection_eligible(sc, unconstrained))
        pool_area += sc.area_slices;
    p->select.area_budget_slices = pool_area * 0.2;
    p->select.max_instructions = 8;
    p->greedy_saving =
        ise::select_greedy(p->art.scored, p->select).total_saving;
    return p;
  }();
  return *pool;
}

void BM_IsegenBudgetCurve(benchmark::State& state) {
  AppCandidatePool& pool = isegen_pool();
  ise::IsegenConfig cfg;
  cfg.max_iterations = static_cast<std::size_t>(state.range(0));
  ise::IsegenStats stats;
  ise::Selection sel;
  for (auto _ : state) {
    sel = ise::select_isegen(pool.art.scored, pool.select, cfg, {}, &stats);
    benchmark::DoNotOptimize(sel);
  }
  state.counters["total_saving"] = sel.total_saving;
  state.counters["vs_greedy_pct"] =
      pool.greedy_saving > 0.0
          ? 100.0 * (sel.total_saving - pool.greedy_saving) /
                pool.greedy_saving
          : 0.0;
  state.counters["moves_accepted"] = static_cast<double>(stats.accepted);
}
BENCHMARK(BM_IsegenBudgetCurve)
    ->Arg(0)
    ->Arg(32)
    ->Arg(128)
    ->Arg(512)
    ->Arg(2048)
    ->Arg(8192);

}  // namespace

BENCHMARK_MAIN();
