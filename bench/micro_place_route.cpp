// Micro-benchmark: place & route scaling with design size — our stand-in
// for the paper's observation that map/PAR are the only candidate-size-
// dependent stages of the implementation flow.
//
// BM_Place/BM_Route run synthetic chain netlists (fan-out around 12);
// BM_PlaceCandidate/BM_RouteCandidate run the largest selected candidate of
// three apps, whose head and operand buses reach hundreds of sinks: the
// shape the CAD flow actually places.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "apps/app.hpp"
#include "fpga/place.hpp"
#include "fpga/route.hpp"
#include "jit/pipeline.hpp"
#include "support/rng.hpp"

using namespace jitise;

namespace {

hwlib::Netlist make_netlist(std::size_t cells, std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  hwlib::Netlist nl;
  nl.top_name = "bench";
  std::vector<hwlib::NetId> live;
  const hwlib::NetId in = nl.new_net();
  nl.add_cell(hwlib::CellKind::PortIn, "in", {}, {in});
  live.push_back(in);
  for (std::size_t i = 0; i < cells; ++i) {
    std::vector<hwlib::NetId> ins{live[rng.below(live.size())]};
    if (live.size() > 2 && rng.below(2) == 0)
      ins.push_back(live[rng.below(live.size())]);
    const hwlib::NetId out = nl.new_net();
    nl.add_cell(hwlib::CellKind::Cluster, "c" + std::to_string(i),
                std::move(ins), {out});
    live.push_back(out);
    if (live.size() > 12) live.erase(live.begin());
  }
  nl.add_cell(hwlib::CellKind::PortOut, "out", {live.back()}, {});
  return nl;
}

void BM_Place(benchmark::State& state) {
  const auto design = fpga::synthesize_top(
      make_netlist(static_cast<std::size_t>(state.range(0)), 7));
  const fpga::Fabric fabric;
  for (auto _ : state) {
    auto placement = fpga::place(design, fabric);
    benchmark::DoNotOptimize(placement);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Place)->RangeMultiplier(2)->Range(32, 512)->Complexity();

void BM_Route(benchmark::State& state) {
  const auto design = fpga::synthesize_top(
      make_netlist(static_cast<std::size_t>(state.range(0)), 7));
  const fpga::Fabric fabric;
  const auto placement = fpga::place(design, fabric);
  for (auto _ : state) {
    auto routing = fpga::route(design, fabric, placement);
    benchmark::DoNotOptimize(routing);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Route)->RangeMultiplier(2)->Range(32, 512)->Complexity();

/// The largest (by cell count) selected candidate of `app_name`, synthesized
/// as the CAD flow does, with the flow's per-candidate placer seed.
struct Candidate {
  fpga::MappedDesign design;
  fpga::PlacerConfig placer;
};

Candidate largest_selected_candidate(const char* app_name) {
  const apps::App app = apps::build_app(app_name);
  vm::Machine machine(app.module);
  machine.run(app.entry, app.datasets[0].args, 1ull << 30);
  const jit::SpecializerConfig cfg;
  hwlib::CircuitDb db;
  jit::ObserverList observers;
  const jit::SearchArtifact art = jit::CandidateSearchStage(cfg).run(
      app.module, machine.profile(), db, observers);
  Candidate best;
  for (std::size_t idx : art.selection.chosen) {
    const auto project = datapath::create_project(
        *art.graphs[art.graph_of[idx]], art.scored[idx].candidate, db, "ci");
    auto design = fpga::synthesize_top(project.netlist);
    if (design.cell_count() <= best.design.cell_count()) continue;
    best.design = std::move(design);
    best.placer = cfg.flow.placer;
    best.placer.seed ^= project.signature;
  }
  return best;
}

void shape_counters(benchmark::State& state, const fpga::MappedDesign& d) {
  std::size_t fanout = 0;
  for (const fpga::MappedNet& net : d.nets)
    fanout = std::max(fanout, net.sinks.size());
  state.counters["cells"] = static_cast<double>(d.cell_count());
  state.counters["nets"] = static_cast<double>(d.net_count());
  state.counters["max_fanout"] = static_cast<double>(fanout);
}

void BM_PlaceCandidate(benchmark::State& state, const char* app) {
  const Candidate c = largest_selected_candidate(app);
  const fpga::Fabric fabric;
  std::uint64_t moves = 0;
  for (auto _ : state) {
    auto placement = fpga::place(c.design, fabric, c.placer);
    moves += placement.moves_tried;
    benchmark::DoNotOptimize(placement);
  }
  shape_counters(state, c.design);
  state.counters["moves/s"] = benchmark::Counter(
      static_cast<double>(moves), benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_PlaceCandidate, whetstone, "whetstone")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PlaceCandidate, namd, "444.namd")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PlaceCandidate, ammp, "188.ammp")
    ->Unit(benchmark::kMillisecond);

void BM_RouteCandidate(benchmark::State& state, const char* app) {
  const Candidate c = largest_selected_candidate(app);
  const fpga::Fabric fabric;
  const auto placement = fpga::place(c.design, fabric, c.placer);
  std::uint64_t wirelength = 0;
  for (auto _ : state) {
    auto routing = fpga::route(c.design, fabric, placement);
    wirelength = routing.total_wirelength;
    benchmark::DoNotOptimize(routing);
  }
  shape_counters(state, c.design);
  state.counters["wirelength"] = static_cast<double>(wirelength);
}
BENCHMARK_CAPTURE(BM_RouteCandidate, whetstone, "whetstone")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_RouteCandidate, namd, "444.namd")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_RouteCandidate, ammp, "188.ammp")
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
