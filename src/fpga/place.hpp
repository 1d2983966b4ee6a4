// Simulated-annealing placement (the "MAP/PAR placement" step).
//
// Classic VPR-style annealer: half-perimeter wirelength (HPWL) cost,
// move = relocate a random cell to a random compatible site (swapping with
// any occupant), geometric cooling, deterministic under a fixed seed.
//
// Move costs are incremental (VPR's bounding boxes, Betz & Rose, FPL'97):
// each net keeps its bounding box for the whole run. A move whose cell sat
// strictly inside a net's box only extends that box by the new position;
// otherwise the net is rescanned, as are nets of at most 8 pins.
// The delta sums HPWL(new box) - HPWL(old box) over the same per-cell net
// lists, multiplicities included, that a from-scratch recomputation would
// sum over. Every term is an integer, so each delta, each accept decision
// and each random draw equals the from-scratch annealer's: placements and
// counters are bit-identical to it.
#pragma once

#include <cstdint>
#include <vector>

#include "fpga/fabric.hpp"
#include "fpga/synthesis.hpp"

namespace jitise::fpga {

struct PlacerConfig {
  std::uint64_t seed = 1;
  double initial_temp = 2.0;       // relative to average net HPWL
  double cooling = 0.92;
  std::uint32_t moves_per_cell_per_temp = 12;
  /// Caps moves per temperature step so very large candidates anneal in
  /// bounded time (quality degrades gracefully, like a capped-effort VPR run).
  std::uint64_t max_moves_per_temp = 40000;
  double stop_temp = 0.005;
};

struct Placement {
  std::vector<Coord> location;  // per cell
  double hpwl = 0.0;            // final cost
  std::uint64_t moves_tried = 0;
  std::uint64_t moves_accepted = 0;

  [[nodiscard]] bool legal(const MappedDesign& design,
                           const Fabric& fabric) const;
};

/// Places `design` onto `fabric`. Throws CadError if the design does not fit.
[[nodiscard]] Placement place(const MappedDesign& design, const Fabric& fabric,
                              const PlacerConfig& config = {});

/// Greedy constructive placement — the "customized tools [that] work
/// significantly faster" direction of the paper's §VI-B: cells are visited
/// in BFS order over the netlist and dropped onto the free compatible site
/// nearest the centroid of their already-placed neighbours. One pass, no
/// annealing; typically 1-2x the annealer's wirelength at a small fraction
/// of its runtime (see the micro_fast_cad benchmark).
[[nodiscard]] Placement place_greedy(const MappedDesign& design,
                                     const Fabric& fabric);

/// HPWL of the full design under `location` (exposed for tests).
[[nodiscard]] double total_hpwl(const MappedDesign& design,
                                const std::vector<Coord>& location);

}  // namespace jitise::fpga
