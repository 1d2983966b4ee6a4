#include "fpga/place.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "support/rng.hpp"

namespace jitise::fpga {

namespace {

double net_hpwl(const MappedNet& net, const std::vector<Coord>& loc) {
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

/// Rows of ids flattened into one array (compressed sparse rows): row `r`
/// is `items[offset[r] .. offset[r + 1])`.
struct Csr {
  std::vector<std::uint32_t> offset{0};
  std::vector<std::uint32_t> items;

  [[nodiscard]] std::span<const std::uint32_t> row(std::size_t r) const {
    return {items.data() + offset[r], items.data() + offset[r + 1]};
  }
};

/// A net's bounding box; its half perimeter is the net's HPWL.
struct Box {
  std::uint16_t xmin = 0, xmax = 0, ymin = 0, ymax = 0;

  [[nodiscard]] std::int64_t hpwl() const {
    return (xmax - xmin) + (ymax - ymin);
  }
  /// True when `p` lies on no edge of the box, so removing a pin at `p`
  /// cannot shrink it.
  [[nodiscard]] bool strictly_contains(Coord p) const {
    return xmin < p.x && p.x < xmax && ymin < p.y && p.y < ymax;
  }
  void extend(Coord p) {
    xmin = std::min(xmin, p.x);
    xmax = std::max(xmax, p.x);
    ymin = std::min(ymin, p.y);
    ymax = std::max(ymax, p.y);
  }
};

/// Nets with at most this many pins are rescanned on every move.
constexpr std::size_t kAlwaysRescanPins = 8;

Box bounding_box(std::span<const std::uint32_t> cells,
                 const std::vector<Coord>& loc) {
  const Coord first = loc[cells.front()];
  Box box{first.x, first.x, first.y, first.y};
  for (std::uint32_t c : cells.subspan(1)) box.extend(loc[c]);
  return box;
}

}  // namespace

double total_hpwl(const MappedDesign& design,
                  const std::vector<Coord>& location) {
  double sum = 0.0;
  for (const MappedNet& net : design.nets) sum += net_hpwl(net, location);
  return sum;
}

bool Placement::legal(const MappedDesign& design, const Fabric& fabric) const {
  if (location.size() != design.cells.size()) return false;
  std::vector<std::uint8_t> used(
      static_cast<std::size_t>(fabric.width()) * fabric.height(), 0);
  for (hwlib::CellId c = 0; c < design.cells.size(); ++c) {
    const Coord p = location[c];
    if (p.x >= fabric.width() || p.y >= fabric.height()) return false;
    if (!Fabric::compatible(design.cells[c].kind, fabric.site(p.x, p.y)))
      return false;
    const std::size_t idx = static_cast<std::size_t>(p.y) * fabric.width() + p.x;
    if (used[idx]) return false;
    used[idx] = 1;
  }
  return true;
}

Placement place(const MappedDesign& design, const Fabric& fabric,
                const PlacerConfig& config) {
  check_fit(design, fabric);
  support::Xoshiro256 rng(config.seed);
  const std::size_t n = design.cells.size();
  const std::size_t num_nets = design.nets.size();

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

  // Pins of each net (driver first, then the sinks as listed) and the nets
  // touching each cell, flattened into CSR rows. A driver lists its net
  // once and every sink entry of another cell lists it once more: a net
  // listed k times for a cell counts k times in that cell's move delta.
  std::vector<std::vector<std::uint32_t>> cell_nets(n);
  Csr pins;
  for (std::uint32_t ni = 0; ni < num_nets; ++ni) {
    const MappedNet& net = design.nets[ni];
    cell_nets[net.driver].push_back(ni);
    for (hwlib::CellId s : net.sinks)
      if (s != net.driver) cell_nets[s].push_back(ni);
    pins.items.push_back(net.driver);
    pins.items.insert(pins.items.end(), net.sinks.begin(), net.sinks.end());
    pins.offset.push_back(static_cast<std::uint32_t>(pins.items.size()));
  }
  Csr nets_of_cell;
  for (const std::vector<std::uint32_t>& nets : cell_nets) {
    nets_of_cell.items.insert(nets_of_cell.items.end(), nets.begin(),
                              nets.end());
    nets_of_cell.offset.push_back(
        static_cast<std::uint32_t>(nets_of_cell.items.size()));
  }

  // Incremental cost: every net's bounding box is kept for the whole run.
  std::vector<Box> box(num_nets);
  for (std::size_t ni = 0; ni < num_nets; ++ni)
    box[ni] = bounding_box(pins.row(ni), pl.location);

  const double cost = total_hpwl(design, pl.location);
  const double avg_net =
      design.nets.empty() ? 1.0 : cost / static_cast<double>(design.nets.size());
  double temp = std::max(0.5, config.initial_temp * std::max(1.0, avg_net));

  // New boxes of the nets the current move touches, committed on accept.
  std::vector<Box> next_box(num_nets);

  // Cost delta of moving a -> pb (and occupant b -> pa if b >= 0), with the
  // move already applied to pl.location. Sums HPWL(new box) - HPWL(old box)
  // over the same net entries the from-scratch recomputation summed over;
  // every term is an integer, so the double result is exactly its delta.
  auto delta_for = [&](hwlib::CellId a, std::int64_t b, Coord pa, Coord pb) {
    std::int64_t delta = 0;
    // `cell` moved from `from` to `to`. If `from` was interior to the box,
    // no edge moved inward: the box only grows to take in `to`. Otherwise
    // rescan with the tentative locations. A net holding both swapped cells
    // keeps its set of pin positions, and `to` already lies in its box, so
    // the rule gives its (unchanged) box too. Small nets are always
    // rescanned: that is cheaper than the poorly predicted interior test.
    auto accumulate = [&](hwlib::CellId cell, Coord from, Coord to) {
      for (std::uint32_t ni : nets_of_cell.row(cell)) {
        const std::span<const std::uint32_t> net_pins = pins.row(ni);
        Box moved = box[ni];
        if (net_pins.size() > kAlwaysRescanPins &&
            moved.strictly_contains(from))
          moved.extend(to);
        else
          moved = bounding_box(net_pins, pl.location);
        delta += moved.hpwl() - box[ni].hpwl();
        next_box[ni] = moved;
      }
    };
    accumulate(a, pa, pb);
    if (b >= 0) accumulate(static_cast<hwlib::CellId>(b), pb, pa);
    return static_cast<double>(delta);
  };
  auto commit = [&](hwlib::CellId cell) {
    for (std::uint32_t ni : nets_of_cell.row(cell)) box[ni] = next_box[ni];
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
        pl.location[a] = pb;
        if (b >= 0) pl.location[static_cast<std::size_t>(b)] = pa;
        const double delta = delta_for(a, b, pa, pb);
        if (delta <= 0.0 || rng.uniform() < std::exp(-delta / temp)) {
          occupant[site_index(pb)] = a;
          occupant[site_index(pa)] = b;
          commit(a);
          if (b >= 0) commit(static_cast<hwlib::CellId>(b));
          ++pl.moves_accepted;
        } else {
          pl.location[a] = pa;
          if (b >= 0) pl.location[static_cast<std::size_t>(b)] = pb;
        }
      }
      temp *= config.cooling;
    }
  }

  pl.hpwl = total_hpwl(design, pl.location);
  return pl;
}

}  // namespace jitise::fpga

namespace jitise::fpga {

Placement place_greedy(const MappedDesign& design, const Fabric& fabric) {
  check_fit(design, fabric);
  const std::size_t n = design.cells.size();
  Placement pl;
  pl.location.resize(n);
  if (n == 0) return pl;

  // Adjacency over nets (driver <-> sinks).
  std::vector<std::vector<hwlib::CellId>> adj(n);
  for (const MappedNet& net : design.nets) {
    for (hwlib::CellId s : net.sinks) {
      if (s == net.driver) continue;
      adj[net.driver].push_back(s);
      adj[s].push_back(net.driver);
    }
  }

  // Free-site lists per kind, kept sorted once; nearest-site search scans
  // them (n and site counts are small at candidate scale).
  auto kind_index = [](hwlib::CellKind k) {
    switch (k) {
      case hwlib::CellKind::Dsp: return 1;
      case hwlib::CellKind::Bram: return 2;
      default: return 0;
    }
  };
  std::vector<Coord> free_sites[3] = {
      fabric.sites_for(hwlib::CellKind::Cluster),
      fabric.sites_for(hwlib::CellKind::Dsp),
      fabric.sites_for(hwlib::CellKind::Bram)};

  auto take_nearest = [&](int kind, double cx, double cy) {
    std::vector<Coord>& sites = free_sites[kind];
    std::size_t best = 0;
    double best_d = 1e30;
    for (std::size_t i = 0; i < sites.size(); ++i) {
      const double dx = sites[i].x - cx, dy = sites[i].y - cy;
      const double d = dx * dx + dy * dy;
      if (d < best_d) {
        best_d = d;
        best = i;
      }
    }
    const Coord c = sites[best];
    sites.erase(sites.begin() + static_cast<std::ptrdiff_t>(best));
    return c;
  };

  // BFS from cell 0 (ports and heads come first in generated netlists);
  // unreached cells seed further BFS waves.
  std::vector<std::uint8_t> placed(n, 0);
  std::vector<std::uint8_t> has_coords(n, 0);
  const double center_x = fabric.width() / 2.0;
  const double center_y = fabric.height() / 2.0;
  std::vector<hwlib::CellId> queue;
  for (hwlib::CellId seed = 0; seed < n; ++seed) {
    if (placed[seed]) continue;
    queue.push_back(seed);
    placed[seed] = 1;
    for (std::size_t qi = queue.size() - 1; qi < queue.size(); ++qi) {
      const hwlib::CellId c = queue[qi];
      // Centroid of neighbours that already have final coordinates.
      double cx = 0, cy = 0;
      unsigned cnt = 0;
      for (hwlib::CellId nb : adj[c]) {
        if (nb == c || !has_coords[nb]) continue;
        cx += pl.location[nb].x;
        cy += pl.location[nb].y;
        ++cnt;
      }
      if (cnt == 0) {
        cx = center_x;
        cy = center_y;
      } else {
        cx /= cnt;
        cy /= cnt;
      }
      pl.location[c] = take_nearest(kind_index(design.cells[c].kind), cx, cy);
      has_coords[c] = 1;
      for (hwlib::CellId nb : adj[c])
        if (!placed[nb]) {
          placed[nb] = 1;
          queue.push_back(nb);
        }
    }
  }
  pl.hpwl = total_hpwl(design, pl.location);
  return pl;
}

}  // namespace jitise::fpga
