// Test-only reference implementation of the router.
//
// `reference::route` computes everything from scratch: it allocates a fresh
// distance map and seeds its heap with the whole tree for every sink, and
// its searches are unbounded. `fpga::route` computes the same result with
// reused scratch state and goal-bounded searches, and the differential test
// in fpga_test.cpp holds it to bit-identical output.
// Keep this body unchanged: it is the specification.
#pragma once

#include <algorithm>
#include <queue>
#include <set>
#include <vector>

#include "fpga/route.hpp"

namespace jitise::fpga::reference {

/// The router's schedule, which `fpga::route` keeps as constants.
struct RouterConfig {
  std::uint32_t max_iterations = 32;
  double present_factor = 0.6;       // initial present-congestion penalty
  double history_increment = 0.35;   // per-iteration history on overuse
};

namespace detail {

/// A directed channel between adjacent tiles.
struct Edge {
  std::uint32_t from = 0;  // tile index y*W+x
  std::uint32_t to = 0;
};

/// Flat grid routing graph: 4 directed edges per tile (to N/S/E/W).
class RoutingGraph {
 public:
  explicit RoutingGraph(const Fabric& fabric)
      : w_(fabric.width()), h_(fabric.height()) {
    // Edge ids: for each tile t and direction d in {E,W,N,S}, id = t*4+d
    // when the neighbour exists (nonexistent edges keep capacity 0).
    edges_.resize(static_cast<std::size_t>(w_) * h_ * 4);
    for (std::uint16_t y = 0; y < h_; ++y) {
      for (std::uint16_t x = 0; x < w_; ++x) {
        const std::uint32_t t = tile(x, y);
        if (x + 1 < w_) edges_[t * 4 + 0] = Edge{t, tile(x + 1, y)};
        if (x > 0) edges_[t * 4 + 1] = Edge{t, tile(x - 1, y)};
        if (y + 1 < h_) edges_[t * 4 + 2] = Edge{t, tile(x, y + 1)};
        if (y > 0) edges_[t * 4 + 3] = Edge{t, tile(x, y - 1)};
      }
    }
  }

  [[nodiscard]] std::uint32_t tile(std::uint16_t x, std::uint16_t y) const {
    return static_cast<std::uint32_t>(y) * w_ + x;
  }
  [[nodiscard]] std::size_t num_tiles() const {
    return static_cast<std::size_t>(w_) * h_;
  }
  [[nodiscard]] std::size_t num_edges() const { return edges_.size(); }
  [[nodiscard]] const Edge& edge(std::uint32_t e) const { return edges_[e]; }
  [[nodiscard]] bool edge_exists(std::uint32_t e) const {
    return edges_[e].from != edges_[e].to;
  }

  /// Outgoing edge ids of tile `t`.
  void out_edges(std::uint32_t t, std::uint32_t out[4], unsigned& n) const {
    n = 0;
    for (unsigned d = 0; d < 4; ++d) {
      const std::uint32_t e = t * 4 + d;
      if (edge_exists(e)) out[n++] = e;
    }
  }

 private:
  std::uint16_t w_, h_;
  std::vector<Edge> edges_;  // from==to means "does not exist"
};

}  // namespace detail

inline RoutingResult route(const MappedDesign& design, const Fabric& fabric,
                           const Placement& placement,
                           const RouterConfig& config) {
  const detail::RoutingGraph graph(fabric);
  const double capacity = fabric.channel_capacity();

  RoutingResult result;
  result.nets.resize(design.nets.size());

  std::vector<std::uint16_t> usage(graph.num_edges(), 0);
  std::vector<double> history(graph.num_edges(), 0.0);

  // Pin tiles per net (driver first), deduplicated.
  std::vector<std::vector<std::uint32_t>> pins(design.nets.size());
  for (std::size_t ni = 0; ni < design.nets.size(); ++ni) {
    const MappedNet& net = design.nets[ni];
    const Coord d = placement.location[net.driver];
    pins[ni].push_back(graph.tile(d.x, d.y));
    for (hwlib::CellId s : net.sinks) {
      const Coord p = placement.location[s];
      const std::uint32_t t = graph.tile(p.x, p.y);
      if (std::find(pins[ni].begin(), pins[ni].end(), t) == pins[ni].end())
        pins[ni].push_back(t);
    }
  }

  double present_penalty = config.present_factor;

  for (std::uint32_t iter = 1; iter <= config.max_iterations; ++iter) {
    result.iterations = iter;
    std::fill(usage.begin(), usage.end(), 0);

    for (std::size_t ni = 0; ni < design.nets.size(); ++ni) {
      RoutedNet& routed = result.nets[ni];
      routed.edges.clear();
      if (pins[ni].size() < 2) continue;  // single-tile net

      // Grow a tree: tiles already in the tree have cost 0 as sources.
      std::set<std::uint32_t> tree_tiles{pins[ni][0]};
      for (std::size_t k = 1; k < pins[ni].size(); ++k) {
        const std::uint32_t target = pins[ni][k];
        if (tree_tiles.count(target)) continue;

        // Dijkstra from all tree tiles to `target`.
        constexpr double kInf = 1e30;
        std::vector<double> dist(graph.num_tiles(), kInf);
        std::vector<std::uint32_t> via_edge(graph.num_tiles(), ~0u);
        using QE = std::pair<double, std::uint32_t>;
        std::priority_queue<QE, std::vector<QE>, std::greater<>> queue;
        for (std::uint32_t t : tree_tiles) {
          dist[t] = 0.0;
          queue.emplace(0.0, t);
        }
        while (!queue.empty()) {
          const auto [dcur, t] = queue.top();
          queue.pop();
          if (dcur > dist[t]) continue;
          if (t == target) break;
          std::uint32_t out[4];
          unsigned n_out;
          graph.out_edges(t, out, n_out);
          for (unsigned i = 0; i < n_out; ++i) {
            const std::uint32_t e = out[i];
            const double over =
                std::max(0.0, (usage[e] + 1.0) - capacity);
            const double cost =
                1.0 + history[e] + present_penalty * over * over;
            const std::uint32_t to = graph.edge(e).to;
            if (dist[t] + cost < dist[to]) {
              dist[to] = dist[t] + cost;
              via_edge[to] = e;
              queue.emplace(dist[to], to);
            }
          }
        }
        if (dist[target] >= kInf)
          throw CadError("router: sink unreachable in fabric graph");

        // Trace back, claim edges, add tiles to the tree.
        std::uint32_t t = target;
        while (!tree_tiles.count(t)) {
          const std::uint32_t e = via_edge[t];
          routed.edges.push_back(e);
          ++usage[e];
          tree_tiles.insert(t);
          t = graph.edge(e).from;
        }
      }
    }

    // Feasibility check + history update.
    std::uint32_t overused = 0;
    for (std::uint32_t e = 0; e < usage.size(); ++e) {
      if (usage[e] > capacity) {
        ++overused;
        history[e] += config.history_increment * (usage[e] - capacity);
      }
    }
    result.overused_edges = overused;
    if (overused == 0) {
      result.success = true;
      break;
    }
    present_penalty *= 1.6;  // tighten congestion pressure each iteration
  }

  result.total_wirelength = 0;
  for (const RoutedNet& rn : result.nets)
    result.total_wirelength += rn.edges.size();
  return result;
}

}  // namespace jitise::fpga::reference
