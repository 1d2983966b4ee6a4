#include "fpga/route.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <set>

namespace jitise::fpga {

namespace {

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

}  // namespace

RoutingResult route(const MappedDesign& design, const Fabric& fabric,
                    const Placement& placement, const RouterConfig& config) {
  const RoutingGraph graph(fabric);
  const double capacity = fabric.channel_capacity();
  const std::size_t num_tiles = graph.num_tiles();

  RoutingResult result;
  result.nets.resize(design.nets.size());

  std::vector<std::uint16_t> usage(graph.num_edges(), 0);
  std::vector<double> history(graph.num_edges(), 0.0);

  // Pin tiles per net (driver first), deduplicated in first-seen order.
  std::vector<std::vector<std::uint32_t>> pins(design.nets.size());
  std::vector<std::size_t> pin_of_net(num_tiles, 0);  // last net index + 1
  for (std::size_t ni = 0; ni < design.nets.size(); ++ni) {
    const MappedNet& net = design.nets[ni];
    auto add_pin = [&](hwlib::CellId cell) {
      const Coord p = placement.location[cell];
      const std::uint32_t t = graph.tile(p.x, p.y);
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
    for (std::size_t w = 0; w < tree.size(); ++w)
      for (std::uint64_t bits = tree[w]; bits != 0; bits &= bits - 1)
        fn(static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits)));
  };

  double present_penalty = config.present_factor;

  auto relax = [&](std::uint32_t t) {
    std::uint32_t out[4];
    unsigned n_out;
    graph.out_edges(t, out, n_out);
    for (unsigned i = 0; i < n_out; ++i) {
      const std::uint32_t e = out[i];
      const double over = std::max(0.0, (usage[e] + 1.0) - capacity);
      const double cost = 1.0 + history[e] + present_penalty * over * over;
      const std::uint32_t to = graph.edge(e).to;
      if (dist[t] + cost < distance(to)) {
        reached[to] = search;
        dist[to] = dist[t] + cost;
        via_edge[to] = e;
        heap.emplace_back(dist[to], to);
        std::push_heap(heap.begin(), heap.end(), std::greater<>());
      }
    }
  };

  for (std::uint32_t iter = 1; iter <= config.max_iterations; ++iter) {
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

        // Dijkstra from all tree tiles to `target`. The tree tiles sit at
        // distance 0 and every edge costs at least 1, so a heap seeded with
        // them would pop them first, in ascending tile order: relax them
        // directly in that order instead.
        ++search;
        heap.clear();
        for_each_tree_tile([&](std::uint32_t t) {
          reached[t] = search;
          dist[t] = 0.0;
        });
        for_each_tree_tile(relax);
        while (!heap.empty()) {
          std::pop_heap(heap.begin(), heap.end(), std::greater<>());
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

std::vector<std::string> validate_routing(const MappedDesign& design,
                                          const Fabric& fabric,
                                          const Placement& placement,
                                          const RoutingResult& routing) {
  std::vector<std::string> errors;
  const RoutingGraph graph(fabric);
  std::vector<std::uint32_t> usage(graph.num_edges(), 0);

  for (std::size_t ni = 0; ni < design.nets.size(); ++ni) {
    const MappedNet& net = design.nets[ni];
    const RoutedNet& rn = routing.nets[ni];
    for (std::uint32_t e : rn.edges) ++usage[e];

    // Connectivity: union the edge endpoints with the driver tile and check
    // every sink tile is reached.
    std::set<std::uint32_t> reach;
    const Coord d = placement.location[net.driver];
    reach.insert(graph.tile(d.x, d.y));
    // Edges were added sink-to-tree; iterate until fixpoint.
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::uint32_t e : rn.edges) {
        const Edge& edge = graph.edge(e);
        if (reach.count(edge.from) && !reach.count(edge.to)) {
          reach.insert(edge.to);
          changed = true;
        }
      }
    }
    for (hwlib::CellId s : net.sinks) {
      const Coord p = placement.location[s];
      if (!reach.count(graph.tile(p.x, p.y))) {
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
