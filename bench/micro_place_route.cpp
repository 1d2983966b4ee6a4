// Micro-benchmark: place & route scaling with design size — our stand-in
// for the paper's observation that map/PAR are the only candidate-size-
// dependent stages of the implementation flow.
//
// BM_Place/BM_Route run synthetic chain netlists (fan-out around 12);
// BM_PlaceCandidate/BM_RouteCandidate run the largest selected candidate of
// three apps, whose head and operand buses reach hundreds of sinks: the
// shape the CAD flow actually places. BM_Corpus places, routes and times
// every distinct design that cold specialization implements, with `place`
// and with `place_greedy` (its seed), and sums quality over the corpus.
// `heap_pops` counts the router's sink-search heap pops; `moves_tried` and
// `moves_accepted` count the anneal's moves, so they pin its trajectory, not
// only where it ends (both read 0 for greedy, which does not anneal).
#include <benchmark/benchmark.h>

#include <algorithm>

#include "common.hpp"
#include "fpga/place.hpp"
#include "fpga/route.hpp"
#include "fpga/sta.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"

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

/// The largest (by cell count) selected candidate of `app_name`.
bench::SelectedDesign largest_selected_candidate(const char* app_name) {
  std::vector<bench::SelectedDesign> designs =
      bench::selected_designs({app_name});
  return std::move(*std::max_element(
      designs.begin(), designs.end(), [](const auto& a, const auto& b) {
        return a.design.cell_count() < b.design.cell_count();
      }));
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
  const bench::SelectedDesign c = largest_selected_candidate(app);
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
  const bench::SelectedDesign c = largest_selected_candidate(app);
  const fpga::Fabric fabric;
  const auto placement = fpga::place(c.design, fabric, c.placer);
  std::uint64_t wirelength = 0, heap_pops = 0;
  for (auto _ : state) {
    auto routing = fpga::route(c.design, fabric, placement);
    wirelength = routing.total_wirelength;
    heap_pops = routing.heap_pops;
    benchmark::DoNotOptimize(routing);
  }
  shape_counters(state, c.design);
  state.counters["wirelength"] = static_cast<double>(wirelength);
  state.counters["heap_pops"] = static_cast<double>(heap_pops);
}
BENCHMARK_CAPTURE(BM_RouteCandidate, whetstone, "whetstone")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_RouteCandidate, namd, "444.namd")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_RouteCandidate, ammp, "188.ammp")
    ->Unit(benchmark::kMillisecond);

/// Places every design cold specialization implements with `place` (or
/// `place_greedy` when `greedy`), then routes and times it. Counters are per
/// pass over the corpus.
void BM_Corpus(benchmark::State& state, bool greedy) {
  const std::vector<bench::SelectedDesign> corpus = bench::cold_designs();
  const fpga::Fabric fabric;
  double place_ms = 0, route_ms = 0, sta_ms = 0, hpwl = 0, critical_ns = 0;
  std::uint64_t wirelength = 0, failures = 0, heap_pops = 0;
  std::uint64_t moves_tried = 0, moves_accepted = 0;
  for (auto _ : state) {
    for (const bench::SelectedDesign& c : corpus) {
      support::Stopwatch sw;
      const fpga::Placement placement =
          greedy ? fpga::place_greedy(c.design, fabric)
                 : fpga::place(c.design, fabric, c.placer);
      place_ms += sw.elapsed_ms();
      sw.reset();
      const fpga::RoutingResult routing =
          fpga::route(c.design, fabric, placement);
      route_ms += sw.elapsed_ms();
      sw.reset();
      const fpga::TimingReport timing =
          fpga::analyze_timing(c.design, fabric, placement, routing);
      sta_ms += sw.elapsed_ms();
      hpwl += placement.hpwl;
      moves_tried += placement.moves_tried;
      moves_accepted += placement.moves_accepted;
      wirelength += routing.total_wirelength;
      heap_pops += routing.heap_pops;
      failures += routing.success ? 0 : 1;
      critical_ns += timing.critical_path_ns;
      benchmark::DoNotOptimize(timing);
    }
  }
  auto per_pass = [](double total) {
    return benchmark::Counter(total, benchmark::Counter::kAvgIterations);
  };
  state.counters["designs"] = static_cast<double>(corpus.size());
  state.counters["place_ms"] = per_pass(place_ms);
  state.counters["route_ms"] = per_pass(route_ms);
  state.counters["sta_ms"] = per_pass(sta_ms);
  state.counters["hpwl"] = per_pass(hpwl);
  state.counters["routed_wl"] = per_pass(static_cast<double>(wirelength));
  state.counters["critical_ns"] = per_pass(critical_ns);
  state.counters["route_failures"] = per_pass(static_cast<double>(failures));
  state.counters["heap_pops"] = per_pass(static_cast<double>(heap_pops));
  state.counters["moves_tried"] = per_pass(static_cast<double>(moves_tried));
  state.counters["moves_accepted"] =
      per_pass(static_cast<double>(moves_accepted));
}
BENCHMARK_CAPTURE(BM_Corpus, place, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Corpus, greedy, true)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
