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
// bitmap. Both congestion terms are non-negative, so every edge costs at
// least 1, and the search uses that twice:
//
// - Tree tiles sit at distance 0 and are relaxed directly in ascending tile
//   order rather than pushed: a heap seeded with them would pop them first,
//   in exactly that order.
// - The search is goal-bounded. The Manhattan distance h(t) from a tile to
//   the sink is a lower bound on the cost left from t, and the cost U of an
//   L-shaped path from the tree tile nearest the sink is an upper bound on
//   the sink's distance. A tile with distance d and d + h > U lies on no
//   cheapest path, so it is not pushed, and a tree tile with h > U is not
//   relaxed. Pops stay in Dijkstra's (distance, tile) order (A* order would
//   reorder ties), so every tile of a cheapest path keeps its distance, its
//   predecessor and its place in the pop order.
//
// The bound is exact in floating point: U sums the edge costs from 0 in
// path order, as the search does along that path, and rounding is
// monotone, so the sink's computed distance is at most U. Along a cheapest
// path, that distance can fall below a tile's distance plus the exact cost
// left by at most half an ulp per remaining edge, far inside the relative
// slack of 1e-9 added to U. Routes are bit-identical to the unbounded
// search that seeds its heap with the whole tree for every sink.
#pragma once

#include <cstdint>
#include <vector>

#include "fpga/place.hpp"

namespace jitise::fpga {

/// Routing edges are the directed channels between adjacent tiles; tile
/// y * width + x is t. The channel leaving t in direction d has id t * 4 + d.
enum Direction : unsigned { kEast = 0, kWest = 1, kNorth = 2, kSouth = 3 };

[[nodiscard]] constexpr std::uint32_t edge_id(std::uint32_t tile,
                                              Direction dir) noexcept {
  return tile * 4 + dir;
}
/// The tile edge `e` leaves.
[[nodiscard]] constexpr std::uint32_t edge_from(std::uint32_t e) noexcept {
  return e / 4;
}
[[nodiscard]] constexpr Direction edge_direction(std::uint32_t e) noexcept {
  return static_cast<Direction>(e % 4);
}
/// The tile edge `e` enters, on a fabric `width` tiles wide.
[[nodiscard]] constexpr std::uint32_t edge_to(std::uint32_t e,
                                              std::uint16_t width) noexcept {
  switch (edge_direction(e)) {
    case kEast: return edge_from(e) + 1;
    case kWest: return edge_from(e) - 1;
    case kNorth: return edge_from(e) + width;
    case kSouth: break;
  }
  return edge_from(e) - width;
}

struct RoutedNet {
  std::vector<std::uint32_t> edges;  // edge ids used by this net's tree
};

struct RoutingResult {
  std::vector<RoutedNet> nets;       // parallel to design.nets
  std::uint32_t iterations = 0;
  std::uint64_t total_wirelength = 0;
  std::uint32_t overused_edges = 0;  // 0 on success
  bool success = false;
  std::uint64_t heap_pops = 0;       // over all sink searches
};

/// Routes all nets of the placed design. Nets whose pins share a tile need
/// no routing resources (intra-tile). Throws CadError if the fabric graph is
/// degenerate (e.g. 1x1 with multi-tile nets).
[[nodiscard]] RoutingResult route(const MappedDesign& design,
                                  const Fabric& fabric,
                                  const Placement& placement);

/// Verifies that every net's edge set forms a connected tree covering all
/// its pins, and that no edge exceeds capacity. Returns diagnostics.
[[nodiscard]] std::vector<std::string> validate_routing(
    const MappedDesign& design, const Fabric& fabric,
    const Placement& placement, const RoutingResult& routing);

}  // namespace jitise::fpga
