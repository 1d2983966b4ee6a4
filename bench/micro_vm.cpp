// Micro-benchmark: virtual-machine throughput and per-app profiling cost —
// the runtime substrate every experiment stands on.
#include <benchmark/benchmark.h>

#include <memory>

#include "apps/app.hpp"
#include "ir/builder.hpp"
#include "ir/link.hpp"
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

void BM_ShortRunsOnLargeModule(benchmark::State& state) {
  // A short run on a machine over a large module: the profile fold at each
  // run end visits only the functions the run entered, so `sum` must cost
  // about the same beside 444.namd's 7,288 decoded blocks as alone.
  // Arg 0: a Machine over `sum` alone. Arg 1: over `sum` with 444.namd
  // merged in, after one run of namd's entry decoded its functions.
  Module m = make_sum();
  vm::Machine* machine = nullptr;
  std::unique_ptr<vm::Machine> alone;
  if (state.range(0) == 0) {
    alone = std::make_unique<vm::Machine>(m);
    machine = alone.get();
    state.SetLabel("sum");
  } else {
    // Built once: every invocation of this benchmark shares the warm machine.
    static const struct Large {
      Module module;
      std::unique_ptr<vm::Machine> machine;
    } large = [] {
      const apps::App namd = apps::build_app("444.namd");
      Large l{make_sum(), nullptr};
      ir::merge_module(l.module, namd.module, "namd.");
      l.machine = std::make_unique<vm::Machine>(l.module);
      l.machine->run("namd." + namd.entry, namd.datasets[0].args, 1ull << 30);
      return l;
    }();
    machine = large.machine.get();
    state.SetLabel("sum + 444.namd");
  }
  const vm::Slot args[] = {vm::Slot::of_int(10)};
  std::uint64_t steps = 0;
  for (auto _ : state) {
    const auto r = machine->run("sum", args);
    steps = r.steps;
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(steps) * state.iterations());
}
BENCHMARK(BM_ShortRunsOnLargeModule)->Arg(0)->Arg(1);

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
