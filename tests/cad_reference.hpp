// Test-only reference implementations of the placer's anneal and of the
// router.
//
// `reference::place` refines `fpga::place_greedy`'s placement with the
// anneal as two single-cell moves per swap: each move updates every box of
// its cell's nets and logs it for undo, so a net holding both swapped cells
// is updated twice. `fpga::place` evaluates each touched net once per move
// and skips the nets both swapped cells hold.
//
// `reference::route` computes everything from scratch: it allocates a fresh
// distance map and seeds its heap with the whole tree for every sink, and
// its searches are unbounded. `fpga::route` computes the same result with
// reused scratch state and goal-bounded searches.
//
// The differential tests in fpga_test.cpp hold both to bit-identical
// output. Keep these bodies unchanged: they are the specification.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <queue>
#include <set>
#include <span>
#include <vector>

#include "fpga/place.hpp"
#include "fpga/route.hpp"
#include "support/rng.hpp"

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

namespace place_detail {

/// Rows of ids flattened into one array (compressed sparse rows): row `r`
/// is `items[offset[r] .. offset[r + 1])`.
struct Csr {
  std::vector<std::uint32_t> offset{0};
  std::vector<std::uint32_t> items;

  [[nodiscard]] std::span<const std::uint32_t> row(std::size_t r) const {
    return {items.data() + offset[r], items.data() + offset[r + 1]};
  }
};

/// A net's bounding box and the number of its pins on each edge; its half
/// perimeter is the net's HPWL.
struct Box {
  std::uint16_t xmin = 0, xmax = 0, ymin = 0, ymax = 0;
  std::uint16_t on_xmin = 0, on_xmax = 0, on_ymin = 0, on_ymax = 0;

  [[nodiscard]] std::int64_t hpwl() const {
    return (xmax - xmin) + (ymax - ymin);
  }
};

/// Nets with at most this many pins are rescanned on every move: that is
/// cheaper than the poorly predicted edge-count update.
constexpr std::size_t kAlwaysRescanPins = 8;

/// The anneal's schedule. Temperatures are in mean net HPWLs of the greedy
/// seed: starting low keeps the seed's structure, which a hot start would
/// scatter.
constexpr double kStartTemp = 0.05;
constexpr double kStopTemp = 0.005;
constexpr std::uint64_t kMovesPerCell = 3;  // per temperature
/// The move range grows above this acceptance rate and shrinks below it.
constexpr double kTargetAcceptance = 0.44;
/// Deltas below this read their acceptance probability from a table.
constexpr std::size_t kAcceptTableSize = 32;

/// VPR's cooling: fast while nearly every move is accepted (the temperature
/// is still too high to matter) or nearly none is (frozen), slow in between.
inline double cooling_factor(double acceptance) {
  if (acceptance > 0.96) return 0.5;
  if (acceptance > 0.8) return 0.9;
  if (acceptance > 0.15) return 0.95;
  return 0.8;
}

/// Index of the site kind a cell of `kind` occupies, in SiteKind's order
/// (0=CLB, 1=DSP, 2=BRAM).
inline int site_kind_index(hwlib::CellKind kind) {
  switch (kind) {
    case hwlib::CellKind::Dsp: return static_cast<int>(SiteKind::Dsp);
    case hwlib::CellKind::Bram: return static_cast<int>(SiteKind::Bram);
    default: return static_cast<int>(SiteKind::Clb);
  }
}

/// The box of the distinct pin cells `cells`, edge counts included.
inline Box bounding_box(std::span<const std::uint32_t> cells,
                        const std::vector<Coord>& loc) {
  const Coord first = loc[cells.front()];
  Box box{first.x, first.x, first.y, first.y};
  for (std::uint32_t c : cells.subspan(1)) {
    box.xmin = std::min(box.xmin, loc[c].x);
    box.xmax = std::max(box.xmax, loc[c].x);
    box.ymin = std::min(box.ymin, loc[c].y);
    box.ymax = std::max(box.ymax, loc[c].y);
  }
  for (std::uint32_t c : cells) {
    box.on_xmin += loc[c].x == box.xmin;
    box.on_xmax += loc[c].x == box.xmax;
    box.on_ymin += loc[c].y == box.ymin;
    box.on_ymax += loc[c].y == box.ymax;
  }
  return box;
}

/// Moves one pin from `from` to `to` along one axis of a box spanning
/// [lo, hi], with `on_lo`/`on_hi` pins on its edges (Betz & Rose, FPL'97).
/// Returns false when the pin was the last on an edge it leaves: that edge
/// may move inward, so the box must be rescanned.
inline bool move_pin(std::uint16_t from, std::uint16_t to, std::uint16_t& lo,
                     std::uint16_t& on_lo, std::uint16_t& hi,
                     std::uint16_t& on_hi) {
  if (to < from) {
    if (from == hi) {
      if (on_hi == 1) return false;
      --on_hi;
    }
    if (to < lo) {
      lo = to;
      on_lo = 1;
    } else if (to == lo) {
      ++on_lo;
    }
  } else if (to > from) {
    if (from == lo) {
      if (on_lo == 1) return false;
      --on_lo;
    }
    if (to > hi) {
      hi = to;
      on_hi = 1;
    } else if (to == hi) {
      ++on_hi;
    }
  }
  return true;
}

}  // namespace place_detail

inline Placement place(const MappedDesign& design, const Fabric& fabric,
                       const PlacerConfig& config = {}) {
  using namespace place_detail;
  Placement pl = place_greedy(design, fabric);
  const std::size_t n = design.cells.size();
  const std::size_t num_nets = design.nets.size();
  support::Xoshiro256 rng(config.seed);

  // Site columns of each kind in ascending x, and per kind the number of
  // its columns left of each x, so the kind's columns inside [x0, x1] are
  // cols[k][left[k][x0] .. left[k][x1 + 1]).
  const std::uint16_t w = fabric.width(), h = fabric.height();
  std::vector<std::uint16_t> cols[3];
  std::vector<std::uint32_t> left[3];
  for (int k = 0; k < 3; ++k) left[k].push_back(0);
  for (std::uint16_t x = 0; x < w; ++x) {
    const int kind = static_cast<int>(fabric.site(x, 0));
    cols[kind].push_back(x);
    for (int k = 0; k < 3; ++k)
      left[k].push_back(static_cast<std::uint32_t>(cols[k].size()));
  }
  std::vector<std::uint8_t> pool(n);
  for (hwlib::CellId c = 0; c < n; ++c)
    pool[c] = static_cast<std::uint8_t>(site_kind_index(design.cells[c].kind));

  // Occupancy map for swap moves.
  std::vector<std::int64_t> occupant(static_cast<std::size_t>(w) * h, -1);
  auto site_index = [&](Coord p) {
    return static_cast<std::size_t>(p.y) * w + p.x;
  };
  for (hwlib::CellId c = 0; c < n; ++c) occupant[site_index(pl.location[c])] = c;

  // The distinct pin cells of each net (driver first) and the nets touching
  // each cell, flattened into CSR rows: a cell a net lists twice is one pin
  // of it, so a move visits each of its cell's nets once.
  std::vector<std::vector<std::uint32_t>> cell_nets(n);
  Csr pins;
  for (std::uint32_t ni = 0; ni < num_nets; ++ni) {
    auto add_pin = [&](hwlib::CellId cell) {
      if (!cell_nets[cell].empty() && cell_nets[cell].back() == ni) return;
      cell_nets[cell].push_back(ni);
      pins.items.push_back(cell);
    };
    add_pin(design.nets[ni].driver);
    for (hwlib::CellId s : design.nets[ni].sinks) add_pin(s);
    pins.offset.push_back(static_cast<std::uint32_t>(pins.items.size()));
  }
  Csr nets_of_cell;
  for (const std::vector<std::uint32_t>& nets : cell_nets) {
    nets_of_cell.items.insert(nets_of_cell.items.end(), nets.begin(),
                              nets.end());
    nets_of_cell.offset.push_back(
        static_cast<std::uint32_t>(nets_of_cell.items.size()));
  }

  // Incremental cost: every net's box is kept for the whole run, and `cost`
  // is the sum of their half perimeters.
  std::vector<Box> box(num_nets);
  std::int64_t cost = 0;
  for (std::size_t ni = 0; ni < num_nets; ++ni) {
    box[ni] = bounding_box(pins.row(ni), pl.location);
    cost += box[ni].hpwl();
  }

  // Moves `cell` to `to`, updates the boxes of its nets and returns the
  // change in HPWL. A swap is two such moves in turn, so a net holding both
  // cells sees two single-pin moves. `undo` keeps each changed box's old
  // value, to restore on reject.
  std::vector<std::pair<std::uint32_t, Box>> undo;
  auto move_cell = [&](hwlib::CellId cell, Coord to) {
    const Coord from = pl.location[cell];
    pl.location[cell] = to;
    std::int64_t delta = 0;
    for (std::uint32_t ni : nets_of_cell.row(cell)) {
      Box& bb = box[ni];
      undo.emplace_back(ni, bb);
      const std::int64_t before = bb.hpwl();
      const std::span<const std::uint32_t> net_pins = pins.row(ni);
      if (net_pins.size() <= kAlwaysRescanPins ||
          !move_pin(from.x, to.x, bb.xmin, bb.on_xmin, bb.xmax, bb.on_xmax) ||
          !move_pin(from.y, to.y, bb.ymin, bb.on_ymin, bb.ymax, bb.on_ymax))
        bb = bounding_box(net_pins, pl.location);
      delta += bb.hpwl() - before;
    }
    return delta;
  };

  // Low-temperature anneal from the greedy seed (Betz & Rose, FPL'97): the
  // temperature spans kStartTemp..kStopTemp mean net HPWLs of the seed, and
  // both the cooling factor and the move range follow the acceptance rate.
  const double mean_net =
      num_nets == 0 ? 0.0
                    : static_cast<double>(cost) / static_cast<double>(num_nets);
  const double max_rlim = std::max(w, h);
  double rlim = max_rlim / 4.0;
  const std::uint64_t moves = kMovesPerCell * static_cast<std::uint64_t>(n);
  // The acceptance probability exp(-delta / temp) of the small deltas,
  // computed once per temperature; larger deltas compute it per move.
  std::array<double, kAcceptTableSize> accept_table{};
  for (double temp = kStartTemp * mean_net; temp > kStopTemp * mean_net;) {
    std::uint64_t tried = 0, accepted = 0;
    const auto r = static_cast<int>(rlim);
    for (std::size_t d = 1; d < kAcceptTableSize; ++d)
      accept_table[d] = std::exp(-static_cast<double>(d) / temp);
    auto acceptance_probability = [&](std::int64_t delta) {
      return delta < static_cast<std::int64_t>(kAcceptTableSize)
                 ? accept_table[static_cast<std::size_t>(delta)]
                 : std::exp(-static_cast<double>(delta) / temp);
    };
    for (std::uint64_t m = 0; m < moves; ++m) {
      const auto a = static_cast<hwlib::CellId>(rng.below(n));
      const Coord pa = pl.location[a];
      // A site of a's kind within rlim of a, clamped to the region.
      const std::vector<std::uint32_t>& kind_left = left[pool[a]];
      const std::uint32_t lo = kind_left[std::max(0, pa.x - r)];
      const std::uint32_t hi = kind_left[std::min(w - 1, pa.x + r) + 1];
      const int y0 = std::max(0, pa.y - r), y1 = std::min(h - 1, pa.y + r);
      const Coord pb{cols[pool[a]][lo + rng.below(hi - lo)],
                     static_cast<std::uint16_t>(
                         y0 + static_cast<int>(rng.below(y1 - y0 + 1)))};
      if (pa == pb) continue;  // no move: neither tried nor accepted
      ++tried;
      const std::int64_t b = occupant[site_index(pb)];
      undo.clear();
      std::int64_t delta = move_cell(a, pb);
      if (b >= 0) delta += move_cell(static_cast<hwlib::CellId>(b), pa);
      if (delta <= 0 || rng.uniform() < acceptance_probability(delta)) {
        occupant[site_index(pb)] = a;
        occupant[site_index(pa)] = b;
        cost += delta;
        ++accepted;
      } else {
        for (auto it = undo.rbegin(); it != undo.rend(); ++it)
          box[it->first] = it->second;
        pl.location[a] = pa;
        if (b >= 0) pl.location[static_cast<std::size_t>(b)] = pb;
      }
    }
    pl.moves_tried += tried;
    pl.moves_accepted += accepted;
    const double acceptance =
        tried == 0 ? 0.0
                   : static_cast<double>(accepted) / static_cast<double>(tried);
    temp *= cooling_factor(acceptance);
    rlim = std::clamp(rlim * (1.0 - kTargetAcceptance + acceptance), 1.0,
                      max_rlim);
  }

  pl.hpwl = static_cast<double>(cost);
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
