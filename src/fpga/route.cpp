#include "fpga/route.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdlib>
#include <functional>
#include <limits>
#include <set>

namespace jitise::fpga {

namespace {

/// PathFinder's schedule. Both congestion terms start and stay
/// non-negative, so every edge costs at least 1, which the search bound
/// relies on.
constexpr std::uint32_t kMaxIterations = 32;
constexpr double kPresentFactor = 0.6;     // initial present-congestion penalty
constexpr double kHistoryIncrement = 0.35; // per-iteration history on overuse
/// Relative slack on a sink's distance bound: far above the rounding error
/// of any path sum, far below the smallest cost difference that matters.
constexpr double kBoundSlack = 1e-9;

}  // namespace

RoutingResult route(const MappedDesign& design, const Fabric& fabric,
                    const Placement& placement) {
  const std::uint16_t w = fabric.width(), h = fabric.height();
  const double capacity = fabric.channel_capacity();
  const std::size_t num_tiles = static_cast<std::size_t>(w) * h;

  RoutingResult result;
  result.nets.resize(design.nets.size());

  std::vector<std::uint16_t> usage(num_tiles * 4, 0);
  std::vector<double> history(num_tiles * 4, 0.0);

  // Pin tiles per net (driver first), deduplicated in first-seen order.
  std::vector<std::vector<std::uint32_t>> pins(design.nets.size());
  std::vector<std::size_t> pin_of_net(num_tiles, 0);  // last net index + 1
  for (std::size_t ni = 0; ni < design.nets.size(); ++ni) {
    const MappedNet& net = design.nets[ni];
    auto add_pin = [&](hwlib::CellId cell) {
      const Coord p = placement.location[cell];
      const std::uint32_t t = static_cast<std::uint32_t>(p.y) * w + p.x;
      if (pin_of_net[t] == ni + 1) return;
      pin_of_net[t] = ni + 1;
      pins[ni].push_back(t);
    };
    add_pin(net.driver);
    for (hwlib::CellId s : net.sinks) add_pin(s);
  }

  // Dijkstra scratch shared by every sink search of the call: dist[t] and
  // via_edge[t] hold only while reached[t] == search, a fresh stamp per
  // search, so nothing is reallocated or cleared per sink.
  constexpr double kInf = 1e30;
  std::vector<double> dist(num_tiles, kInf);
  std::vector<std::uint32_t> via_edge(num_tiles, ~0u);
  std::vector<std::uint64_t> reached(num_tiles, 0);
  std::uint64_t search = 0;
  auto distance = [&](std::uint32_t t) {
    return reached[t] == search ? dist[t] : kInf;
  };
  using QE = std::pair<double, std::uint32_t>;
  std::vector<QE> heap;  // min-heap under std::greater

  // The net's routing tree as a tile bitmap, visited in ascending order.
  std::vector<std::uint64_t> tree((num_tiles + 63) / 64);
  auto in_tree = [&](std::uint32_t t) {
    return ((tree[t / 64] >> (t % 64)) & 1u) != 0;
  };
  auto add_to_tree = [&](std::uint32_t t) {
    tree[t / 64] |= std::uint64_t{1} << (t % 64);
  };
  auto for_each_tree_tile = [&](auto&& fn) {
    for (std::size_t wi = 0; wi < tree.size(); ++wi)
      for (std::uint64_t bits = tree[wi]; bits != 0; bits &= bits - 1)
        fn(static_cast<std::uint32_t>(wi * 64 + std::countr_zero(bits)));
  };

  double present_penalty = kPresentFactor;
  auto edge_cost = [&](std::uint32_t e) {
    const double over = std::max(0.0, (usage[e] + 1.0) - capacity);
    return 1.0 + history[e] + present_penalty * over * over;
  };

  // The current sink's tile (tx, ty), and the bound on its distance.
  int tx = 0, ty = 0;
  double bound = kInf;
  auto to_sink = [&](int x, int y) {  // Manhattan distance
    return std::abs(x - tx) + std::abs(y - ty);
  };
  auto tile_to_sink = [&](std::uint32_t t) {
    return to_sink(static_cast<int>(t % w), static_cast<int>(t / w));
  };

  // Cost of the L-shaped path from `t` to the sink, along x first when
  // `x_first`, summed from 0 in path order as the search would sum it.
  auto l_path_cost = [&](std::uint32_t t, bool x_first) {
    const int x = static_cast<int>(t % w), y = static_cast<int>(t / w);
    struct Leg {
      Direction dir;
      int edges;
    };
    std::array<Leg, 2> legs{Leg{x < tx ? kEast : kWest, std::abs(tx - x)},
                            Leg{y < ty ? kNorth : kSouth, std::abs(ty - y)}};
    if (!x_first) std::swap(legs[0], legs[1]);
    double cost = 0.0;
    for (const Leg& leg : legs) {
      for (int i = 0; i < leg.edges; ++i) {
        const std::uint32_t e = edge_id(t, leg.dir);
        cost += edge_cost(e);
        t = edge_to(e, w);
      }
    }
    return cost;
  };

  auto relax = [&](std::uint32_t t) {
    const int x = static_cast<int>(t % w), y = static_cast<int>(t / w);
    auto try_edge = [&](Direction dir, int to_x, int to_y) {
      const std::uint32_t e = edge_id(t, dir);
      const double d = dist[t] + edge_cost(e);
      if (d + to_sink(to_x, to_y) > bound) return;
      const std::uint32_t to = edge_to(e, w);
      if (d < distance(to)) {
        reached[to] = search;
        dist[to] = d;
        via_edge[to] = e;
        heap.emplace_back(d, to);
        std::push_heap(heap.begin(), heap.end(), std::greater<>());
      }
    };
    if (x + 1 < w) try_edge(kEast, x + 1, y);
    if (x > 0) try_edge(kWest, x - 1, y);
    if (y + 1 < h) try_edge(kNorth, x, y + 1);
    if (y > 0) try_edge(kSouth, x, y - 1);
  };

  for (std::uint32_t iter = 1; iter <= kMaxIterations; ++iter) {
    result.iterations = iter;
    std::fill(usage.begin(), usage.end(), 0);

    for (std::size_t ni = 0; ni < design.nets.size(); ++ni) {
      RoutedNet& routed = result.nets[ni];
      routed.edges.clear();
      if (pins[ni].size() < 2) continue;  // single-tile net

      // Grow a tree: tiles already in the tree have cost 0 as sources.
      std::fill(tree.begin(), tree.end(), 0);
      add_to_tree(pins[ni][0]);
      for (std::size_t k = 1; k < pins[ni].size(); ++k) {
        const std::uint32_t target = pins[ni][k];
        if (in_tree(target)) continue;
        tx = static_cast<int>(target % w);
        ty = static_cast<int>(target / w);

        // Dijkstra from all tree tiles to `target`, bounded by the cheaper
        // L-shaped path from the tree tile nearest it (the first in tile
        // order among equals). The tree tiles sit at distance 0 and every
        // edge costs at least 1, so a heap seeded with them would pop them
        // first, in ascending tile order: relax them directly in that order
        // instead, skipping those too far to start a path within the bound.
        ++search;
        heap.clear();
        std::uint32_t nearest = 0;
        int nearest_h = std::numeric_limits<int>::max();
        for_each_tree_tile([&](std::uint32_t t) {
          reached[t] = search;
          dist[t] = 0.0;
          if (const int ht = tile_to_sink(t); ht < nearest_h) {
            nearest = t;
            nearest_h = ht;
          }
        });
        bound = std::min(l_path_cost(nearest, true),
                         l_path_cost(nearest, false));
        bound += bound * kBoundSlack;
        for_each_tree_tile([&](std::uint32_t t) {
          if (tile_to_sink(t) <= bound) relax(t);
        });
        while (!heap.empty()) {
          std::pop_heap(heap.begin(), heap.end(), std::greater<>());
          ++result.heap_pops;
          const auto [dcur, t] = heap.back();
          heap.pop_back();
          if (dcur > dist[t]) continue;
          if (t == target) break;
          relax(t);
        }
        if (distance(target) >= kInf)
          throw CadError("router: sink unreachable in fabric graph");

        // Trace back, claim edges, add tiles to the tree.
        std::uint32_t t = target;
        while (!in_tree(t)) {
          const std::uint32_t e = via_edge[t];
          routed.edges.push_back(e);
          ++usage[e];
          add_to_tree(t);
          t = edge_from(e);
        }
      }
    }

    // Feasibility check + history update.
    std::uint32_t overused = 0;
    for (std::uint32_t e = 0; e < usage.size(); ++e) {
      if (usage[e] > capacity) {
        ++overused;
        history[e] += kHistoryIncrement * (usage[e] - capacity);
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

std::vector<std::string> validate_routing(const MappedDesign& design,
                                          const Fabric& fabric,
                                          const Placement& placement,
                                          const RoutingResult& routing) {
  std::vector<std::string> errors;
  const std::uint16_t w = fabric.width();
  auto tile_of = [&](hwlib::CellId c) {
    const Coord p = placement.location[c];
    return static_cast<std::uint32_t>(p.y) * w + p.x;
  };
  std::vector<std::uint32_t> usage(
      static_cast<std::size_t>(w) * fabric.height() * 4, 0);

  for (std::size_t ni = 0; ni < design.nets.size(); ++ni) {
    const MappedNet& net = design.nets[ni];
    const RoutedNet& rn = routing.nets[ni];
    for (std::uint32_t e : rn.edges) ++usage[e];

    // Connectivity: union the edge endpoints with the driver tile and check
    // every sink tile is reached.
    std::set<std::uint32_t> reach{tile_of(net.driver)};
    // Edges were added sink-to-tree; iterate until fixpoint.
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::uint32_t e : rn.edges) {
        if (reach.count(edge_from(e)) && !reach.count(edge_to(e, w))) {
          reach.insert(edge_to(e, w));
          changed = true;
        }
      }
    }
    for (hwlib::CellId s : net.sinks) {
      if (!reach.count(tile_of(s))) {
        errors.push_back("net " + std::to_string(ni) + " does not reach sink");
        break;
      }
    }
  }
  for (std::uint32_t e = 0; e < usage.size(); ++e)
    if (usage[e] > fabric.channel_capacity())
      errors.push_back("edge " + std::to_string(e) + " over capacity: " +
                       std::to_string(usage[e]));
  return errors;
}

}  // namespace jitise::fpga
