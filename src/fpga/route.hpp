// PathFinder-style negotiated-congestion routing ("PAR" routing step).
//
// Routing resources are the directed channels between adjacent tiles, each
// with `wires_per_channel` capacity. Every net is routed as a tree: each
// sink is connected to the net's current tree by a cheapest-path search
// whose edge cost combines base cost, present congestion and a history term
// that grows on every overused edge (McMurchie & Ebeling, FPGA'95). Rip-up
// and reroute iterations continue until the routing is feasible.
//
// The per-sink Dijkstra reuses one distance map per call (validated by a
// per-search stamp instead of reallocated) and keeps the tree as a tile
// bitmap. Tree tiles are relaxed directly in ascending tile order rather
// than pushed into the heap: with every edge costing at least 1 (true for
// non-negative `present_factor` and `history_increment`) a heap seeded with
// them pops them first in exactly that order, and the remaining pushes and
// pops are unchanged. Routes are bit-identical to the search that seeds
// the heap with the whole tree for every sink.
#pragma once

#include <cstdint>
#include <vector>

#include "fpga/place.hpp"

namespace jitise::fpga {

struct RouterConfig {
  std::uint32_t max_iterations = 32;
  double present_factor = 0.6;       // growth of present-congestion penalty
  double history_increment = 0.35;   // per-iteration history on overuse
};

/// A directed channel between adjacent tiles.
struct Edge {
  std::uint32_t from = 0;  // tile index y*W+x
  std::uint32_t to = 0;
};

struct RoutedNet {
  std::vector<std::uint32_t> edges;  // edge ids used by this net's tree
};

struct RoutingResult {
  std::vector<RoutedNet> nets;       // parallel to design.nets
  std::uint32_t iterations = 0;
  std::uint64_t total_wirelength = 0;
  std::uint32_t overused_edges = 0;  // 0 on success
  bool success = false;
};

/// Routes all nets of the placed design. Nets whose pins share a tile need
/// no routing resources (intra-tile). Throws CadError if the fabric graph is
/// degenerate (e.g. 1x1 with multi-tile nets).
[[nodiscard]] RoutingResult route(const MappedDesign& design,
                                  const Fabric& fabric,
                                  const Placement& placement,
                                  const RouterConfig& config = {});

/// Verifies that every net's edge set forms a connected tree covering all
/// its pins, and that no edge exceeds capacity. Returns diagnostics.
[[nodiscard]] std::vector<std::string> validate_routing(
    const MappedDesign& design, const Fabric& fabric,
    const Placement& placement, const RoutingResult& routing);

}  // namespace jitise::fpga
