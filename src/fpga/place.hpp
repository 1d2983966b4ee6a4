// Placement (the "MAP/PAR placement" step).
//
// `place` starts from `place_greedy`'s constructive placement and refines it
// with a low-temperature anneal (VPR's schedule, Betz & Rose, FPL'97):
// half-perimeter wirelength (HPWL) cost; a move relocates a random cell to
// a random site of its kind within `rlim` of it (the window clamped to the
// region), swapping with any occupant; the cooling factor and `rlim` adapt
// to the acceptance rate, so moves stay local once few long ones succeed.
// Deterministic for a given (design, fabric, seed).
//
// Move costs are incremental (VPR's bounding boxes): each net keeps its box
// and the number of its pins on each edge for the whole run, so a move
// updates a box in O(1) unless its cell was the last pin on an edge it
// leaves; then the net is rescanned, as are nets of at most 8 pins. A swap
// is two single-cell moves in turn. Every term is an integer and each cell
// counts once per net, so the tracked cost is exactly the placement's total
// HPWL.
//
// A move that raises the cost by delta is accepted with probability
// exp(-delta / temp). Deltas are integers, so the probabilities of the
// small ones are tabled once per temperature, each computed by the same
// expression from the same operands as a per-move call: every accept
// decision and random draw, and so every placement, is unchanged.
#pragma once

#include <cstdint>
#include <vector>

#include "fpga/fabric.hpp"
#include "fpga/synthesis.hpp"

namespace jitise::fpga {

struct PlacerConfig {
  std::uint64_t seed = 1;
};

struct Placement {
  std::vector<Coord> location;  // per cell
  double hpwl = 0.0;            // total HPWL of `location`
  std::uint64_t moves_tried = 0;
  std::uint64_t moves_accepted = 0;

  [[nodiscard]] bool legal(const MappedDesign& design,
                           const Fabric& fabric) const;
};

/// Places `design` onto `fabric`. Throws CadError if the design does not fit.
[[nodiscard]] Placement place(const MappedDesign& design, const Fabric& fabric,
                              const PlacerConfig& config = {});

/// Greedy constructive placement, the seed of `place`: cells are visited in
/// BFS order over the netlist and dropped onto the free compatible site
/// nearest the centroid of their already-placed neighbours. One pass, no
/// annealing, no seed.
[[nodiscard]] Placement place_greedy(const MappedDesign& design,
                                     const Fabric& fabric);

/// HPWL of the full design under `location` (exposed for tests).
[[nodiscard]] double total_hpwl(const MappedDesign& design,
                                const std::vector<Coord>& location);

}  // namespace jitise::fpga
