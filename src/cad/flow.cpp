#include "cad/flow.hpp"

#include "fpga/place.hpp"
#include "fpga/route.hpp"
#include "fpga/synthesis.hpp"
#include "support/stopwatch.hpp"

namespace jitise::cad {

ImplementationResult implement_candidate(const datapath::CadProject& project,
                                         const ToolFlowConfig& config) {
  ImplementationResult result;
  result.name = project.name;
  result.signature = project.signature;
  const std::uint64_t seed = project.signature;
  const CadRuntimeModel& model = config.runtime;
  support::Stopwatch sw;

  // Phase cost of netlist generation (C2V) — the project was already built;
  // attribute its modeled cost here so callers see the full pipeline.
  result.c2v = StageReport{"c2v", model.c2v_seconds(seed), 0.0};

  // Stage 1: Check Syntax.
  sw.reset();
  const auto syntax_errors = check_vhdl_syntax(project.vhdl);
  if (!syntax_errors.empty())
    throw fpga::CadError("VHDL syntax check failed: " + syntax_errors.front());
  result.syn = StageReport{"syn", model.syn_seconds(seed), sw.elapsed_ms()};

  // Stage 2: Synthesis (top module only; components come from the cache).
  sw.reset();
  fpga::MappedDesign design = fpga::synthesize_top(project.netlist);
  result.cells = design.cell_count();
  result.nets = design.net_count();
  result.clb_cells = design.count(hwlib::CellKind::Cluster);
  result.dsp_cells = design.count(hwlib::CellKind::Dsp);
  result.bram_cells = design.count(hwlib::CellKind::Bram);
  result.xst =
      StageReport{"xst", model.xst_seconds(result.cells, seed), sw.elapsed_ms()};

  // Stage 3: Translate — consolidate netlists + constraints, check fit.
  sw.reset();
  const fpga::Fabric fabric(config.fabric);
  fpga::check_fit(design, fabric);
  result.tra = StageReport{"tra", model.tra_seconds(seed), sw.elapsed_ms()};

  // Stage 4: Map (packing + placement).
  sw.reset();
  fpga::PlacerConfig placer = config.placer;
  placer.seed ^= seed;  // deterministic per candidate
  const fpga::Placement placement = fpga::place(design, fabric, placer);
  result.placement_hpwl = placement.hpwl;
  result.map =
      StageReport{"map", model.map_seconds(result.cells, seed), sw.elapsed_ms()};

  // Stage 5: Place & Route (routing + timing closure).
  sw.reset();
  const fpga::RoutingResult routing = fpga::route(design, fabric, placement);
  if (!routing.success)
    throw fpga::CadError("routing did not converge: " +
                         std::to_string(routing.overused_edges) +
                         " overused channels");
  result.routed_wirelength = routing.total_wirelength;
  result.route_iterations = routing.iterations;
  result.timing =
      fpga::analyze_timing(design, fabric, placement, routing, config.delays);
  result.par = StageReport{"par",
                           model.par_seconds(result.cells, result.nets, seed),
                           sw.elapsed_ms()};

  // Stage 6: Bitstream generation (EAPR partial bitstream).
  sw.reset();
  result.bitstream = fpga::generate_bitstream(design, fabric, placement,
                                              routing, project.part);
  result.bitgen = StageReport{"bitgen", model.bitgen_seconds(seed), sw.elapsed_ms()};

  return result;
}

}  // namespace jitise::cad
