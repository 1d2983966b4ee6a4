// Micro-benchmark: virtual-machine throughput and per-app profiling cost —
// the runtime substrate every experiment stands on.
#include <benchmark/benchmark.h>

#include "apps/app.hpp"
#include "ir/builder.hpp"
#include "vm/interpreter.hpp"

using namespace jitise;
using namespace jitise::ir;

namespace {

Module make_sum() {
  Module m;
  FunctionBuilder fb(m, "sum", Type::I32, {Type::I32});
  const BlockId body = fb.new_block("body");
  const BlockId exit = fb.new_block("exit");
  fb.br(body);
  fb.set_insert(body);
  const ValueId i = fb.phi(Type::I32);
  const ValueId acc = fb.phi(Type::I32);
  const ValueId inext = fb.binop(Opcode::Add, i, fb.const_int(Type::I32, 1));
  const ValueId anext = fb.binop(Opcode::Add, acc, inext);
  const ValueId done = fb.icmp(ICmpPred::Sge, inext, fb.param(0));
  fb.condbr(done, exit, body);
  fb.phi_incoming(i, fb.const_int(Type::I32, 0), fb.entry());
  fb.phi_incoming(i, inext, body);
  fb.phi_incoming(acc, fb.const_int(Type::I32, 0), fb.entry());
  fb.phi_incoming(acc, anext, body);
  fb.set_insert(exit);
  fb.ret(anext);
  fb.finish();
  return m;
}

void BM_InterpreterLoop(benchmark::State& state) {
  const Module m = make_sum();
  vm::Machine machine(m);
  const vm::Slot args[] = {vm::Slot::of_int(state.range(0))};
  std::uint64_t steps = 0;
  for (auto _ : state) {
    const auto r = machine.run("sum", args);
    steps = r.steps;
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(steps) * state.iterations());
}
BENCHMARK(BM_InterpreterLoop)->Arg(1000)->Arg(100000);

void BM_AppProfilingRun(benchmark::State& state) {
  const char* names[] = {"adpcm", "fft", "sor", "whetstone"};
  const apps::App app = apps::build_app(names[state.range(0)]);
  state.SetLabel(app.name);
  std::uint64_t steps = 0;
  for (auto _ : state) {
    vm::Machine machine(app.module);
    const auto r = machine.run(app.entry, app.datasets[0].args, 1ull << 30);
    steps = r.steps;
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(steps) * state.iterations());
}
BENCHMARK(BM_AppProfilingRun)->DenseRange(0, 3);

void BM_AppBuild(benchmark::State& state) {
  // Module-construction cost for the largest scientific stand-in.
  for (auto _ : state) {
    const apps::App app = apps::build_app("444.namd");
    benchmark::DoNotOptimize(app);
  }
}
BENCHMARK(BM_AppBuild);

}  // namespace

BENCHMARK_MAIN();
