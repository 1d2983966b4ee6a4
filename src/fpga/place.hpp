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
// Move costs are incremental. Each net keeps its HPWL for the whole run,
// and each cell lists its nets in three rows: two-pin nets with the other
// pin's cell, nets of 3-8 pins, and larger nets. A move writes the new
// location of its cell (and of the swapped cell) and then evaluates each
// net it touches once: a two-pin net as the Manhattan distance to its
// partner, a 3-8-pin net by a min/max scan, a larger one from its kept box
// and the number of its pins on each edge (VPR's bounding boxes), in O(1)
// unless the cell was the last pin on an edge it leaves, when the net is
// rescanned. A net holding both swapped cells keeps its pin positions, so
// its HPWL cannot change and it is skipped. The new values are committed
// only if the move is accepted; a rejected move just restores the two
// locations. Every term is an integer and each cell counts once per net, so
// the tracked cost is exactly the placement's total HPWL, and each move's
// delta is the same integer as moving the two cells one after the other.
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
