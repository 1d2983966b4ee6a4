// Test-only reference implementations of the placer and router.
//
// `reference::place` and `reference::route` compute everything from
// scratch: the annealer recomputes every touched net's HPWL before and
// after each move, and the router allocates a fresh distance map and seeds
// its heap with the whole tree for every sink. `fpga::place` and
// `fpga::route` compute the same results incrementally, and the
// differential tests in fpga_test.cpp hold them to bit-identical output.
// Keep these bodies unchanged: they are the specification.
#pragma once

#include <algorithm>
#include <cmath>
#include <queue>
#include <set>
#include <vector>

#include "fpga/place.hpp"
#include "fpga/route.hpp"
#include "support/rng.hpp"

namespace jitise::fpga::reference {

namespace detail {

inline double net_hpwl(const MappedNet& net, const std::vector<Coord>& loc) {
  std::uint16_t xmin = loc[net.driver].x, xmax = xmin;
  std::uint16_t ymin = loc[net.driver].y, ymax = ymin;
  for (hwlib::CellId s : net.sinks) {
    xmin = std::min(xmin, loc[s].x);
    xmax = std::max(xmax, loc[s].x);
    ymin = std::min(ymin, loc[s].y);
    ymax = std::max(ymax, loc[s].y);
  }
  return static_cast<double>(xmax - xmin) + static_cast<double>(ymax - ymin);
}

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

inline Placement place(const MappedDesign& design, const Fabric& fabric,
                       const PlacerConfig& config) {
  check_fit(design, fabric);
  support::Xoshiro256 rng(config.seed);
  const std::size_t n = design.cells.size();

  Placement pl;
  pl.location.resize(n);

  // Deterministic initial placement: per site kind, scatter cells over the
  // kind's site list with a seeded shuffle.
  struct Pool {
    std::vector<Coord> sites;
    std::size_t next = 0;
  };
  Pool pools[3];  // indexed by effective kind: 0=CLB, 1=DSP, 2=BRAM
  auto pool_of = [](hwlib::CellKind k) {
    switch (k) {
      case hwlib::CellKind::Dsp: return 1;
      case hwlib::CellKind::Bram: return 2;
      default: return 0;
    }
  };
  pools[0].sites = fabric.sites_for(hwlib::CellKind::Cluster);
  pools[1].sites = fabric.sites_for(hwlib::CellKind::Dsp);
  pools[2].sites = fabric.sites_for(hwlib::CellKind::Bram);
  for (Pool& pool : pools)
    for (std::size_t i = pool.sites.size(); i > 1; --i)
      std::swap(pool.sites[i - 1], pool.sites[rng.below(i)]);
  for (hwlib::CellId c = 0; c < n; ++c)
    pl.location[c] = pools[pool_of(design.cells[c].kind)].sites[
        pools[pool_of(design.cells[c].kind)].next++];

  // Occupancy map for swap moves.
  std::vector<std::int64_t> occupant(
      static_cast<std::size_t>(fabric.width()) * fabric.height(), -1);
  auto site_index = [&](Coord p) {
    return static_cast<std::size_t>(p.y) * fabric.width() + p.x;
  };
  for (hwlib::CellId c = 0; c < n; ++c) occupant[site_index(pl.location[c])] = c;

  // Incremental cost bookkeeping: nets touching a cell.
  std::vector<std::vector<std::uint32_t>> nets_of_cell(n);
  for (std::uint32_t ni = 0; ni < design.nets.size(); ++ni) {
    const MappedNet& net = design.nets[ni];
    nets_of_cell[net.driver].push_back(ni);
    for (hwlib::CellId s : net.sinks)
      if (s != net.driver) nets_of_cell[s].push_back(ni);
  }

  double cost = total_hpwl(design, pl.location);
  const double avg_net =
      design.nets.empty() ? 1.0 : cost / static_cast<double>(design.nets.size());
  double temp = std::max(0.5, config.initial_temp * std::max(1.0, avg_net));

  auto delta_for = [&](hwlib::CellId a, std::int64_t b, Coord pa, Coord pb) {
    // Cost delta of moving a -> pb (and occupant b -> pa if b >= 0).
    double before = 0.0, after = 0.0;
    auto accumulate = [&](hwlib::CellId cell) {
      for (std::uint32_t ni : nets_of_cell[cell])
        before += detail::net_hpwl(design.nets[ni], pl.location);
    };
    accumulate(a);
    if (b >= 0) accumulate(static_cast<hwlib::CellId>(b));
    pl.location[a] = pb;
    if (b >= 0) pl.location[static_cast<std::size_t>(b)] = pa;
    auto accumulate_after = [&](hwlib::CellId cell) {
      for (std::uint32_t ni : nets_of_cell[cell])
        after += detail::net_hpwl(design.nets[ni], pl.location);
    };
    accumulate_after(a);
    if (b >= 0) accumulate_after(static_cast<hwlib::CellId>(b));
    // Shared nets are double counted identically on both sides; fine for a
    // delta. Restore; caller commits if accepted.
    pl.location[a] = pa;
    if (b >= 0) pl.location[static_cast<std::size_t>(b)] = pb;
    return after - before;
  };

  if (n > 0) {
    while (temp > config.stop_temp * std::max(1.0, avg_net)) {
      const std::uint64_t moves =
          std::min(config.max_moves_per_temp,
                   config.moves_per_cell_per_temp * static_cast<std::uint64_t>(n));
      for (std::uint64_t m = 0; m < moves; ++m) {
        ++pl.moves_tried;
        const auto a = static_cast<hwlib::CellId>(rng.below(n));
        const Pool& pool = pools[pool_of(design.cells[a].kind)];
        const Coord pb = pool.sites[rng.below(pool.sites.size())];
        const Coord pa = pl.location[a];
        if (pa == pb) continue;
        const std::int64_t b = occupant[site_index(pb)];
        if (b >= 0 &&
            pool_of(design.cells[static_cast<std::size_t>(b)].kind) !=
                pool_of(design.cells[a].kind))
          continue;  // incompatible swap (different column kinds)
        const double delta = delta_for(a, b, pa, pb);
        if (delta <= 0.0 || rng.uniform() < std::exp(-delta / temp)) {
          pl.location[a] = pb;
          occupant[site_index(pb)] = a;
          occupant[site_index(pa)] = b;
          if (b >= 0) pl.location[static_cast<std::size_t>(b)] = pa;
          cost += delta;
          ++pl.moves_accepted;
        }
      }
      temp *= config.cooling;
    }
  }

  pl.hpwl = total_hpwl(design, pl.location);
  return pl;
}

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
