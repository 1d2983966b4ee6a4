#include "fpga/place.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdlib>
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

/// Rows of items flattened into one array (compressed sparse rows): row
/// `r` is `items[offset[r] .. offset[r + 1])`.
template <typename T>
struct Rows {
  std::vector<std::uint32_t> offset{0};
  std::vector<T> items;

  Rows() = default;
  explicit Rows(const std::vector<std::vector<T>>& rows) {
    for (const std::vector<T>& row : rows) {
      items.insert(items.end(), row.begin(), row.end());
      offset.push_back(static_cast<std::uint32_t>(items.size()));
    }
  }

  [[nodiscard]] std::span<const T> row(std::size_t r) const {
    return {items.data() + offset[r], items.data() + offset[r + 1]};
  }
};
using Csr = Rows<std::uint32_t>;

/// A two-pin net of some cell, with the net's other pin.
struct Partner {
  std::uint32_t net = 0;
  std::uint32_t cell = 0;
};

[[nodiscard]] bool contains(std::span<const std::uint32_t> row,
                            std::uint32_t id) {
  return std::find(row.begin(), row.end(), id) != row.end();
}

/// The HPWL of the distinct pin cells `cells`.
std::int32_t span_hpwl(std::span<const std::uint32_t> cells,
                       const std::vector<Coord>& loc) {
  const Coord first = loc[cells.front()];
  std::uint16_t xmin = first.x, xmax = first.x;
  std::uint16_t ymin = first.y, ymax = first.y;
  for (std::uint32_t c : cells.subspan(1)) {
    xmin = std::min(xmin, loc[c].x);
    xmax = std::max(xmax, loc[c].x);
    ymin = std::min(ymin, loc[c].y);
    ymax = std::max(ymax, loc[c].y);
  }
  return (xmax - xmin) + (ymax - ymin);
}

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
/// cheaper than the poorly predicted edge-count update. Only larger nets
/// keep an edge-counted box.
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
double cooling_factor(double acceptance) {
  if (acceptance > 0.96) return 0.5;
  if (acceptance > 0.8) return 0.9;
  if (acceptance > 0.15) return 0.95;
  return 0.8;
}

/// Index of the site kind a cell of `kind` occupies, in SiteKind's order
/// (0=CLB, 1=DSP, 2=BRAM).
int site_kind_index(hwlib::CellKind kind) {
  switch (kind) {
    case hwlib::CellKind::Dsp: return static_cast<int>(SiteKind::Dsp);
    case hwlib::CellKind::Bram: return static_cast<int>(SiteKind::Bram);
    default: return static_cast<int>(SiteKind::Clb);
  }
}

/// The box of the distinct pin cells `cells`, edge counts included.
Box bounding_box(std::span<const std::uint32_t> cells,
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
bool move_pin(std::uint16_t from, std::uint16_t to, std::uint16_t& lo,
              std::uint16_t& on_lo, std::uint16_t& hi, std::uint16_t& on_hi) {
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
  Placement pl = place_greedy(design, fabric);
  std::vector<Coord>& loc = pl.location;
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
  for (hwlib::CellId c = 0; c < n; ++c) occupant[site_index(loc[c])] = c;

  // The distinct pin cells of each net (driver first), as CSR rows: a cell
  // a net lists twice is one pin of it. Each cell's nets are split by size
  // into three rows: its two-pin nets, each with the other pin's cell; its
  // nets of up to kAlwaysRescanPins pins; and the larger ones, by their
  // index into `big`. A one-pin net has HPWL 0 wherever its cell goes, so
  // no row holds it.
  Csr pins;
  std::vector<std::uint32_t> last_net(n, UINT32_MAX);
  for (std::uint32_t ni = 0; ni < num_nets; ++ni) {
    auto add_pin = [&](hwlib::CellId cell) {
      if (last_net[cell] == ni) return;
      last_net[cell] = ni;
      pins.items.push_back(cell);
    };
    add_pin(design.nets[ni].driver);
    for (hwlib::CellId s : design.nets[ni].sinks) add_pin(s);
    pins.offset.push_back(static_cast<std::uint32_t>(pins.items.size()));
  }
  std::vector<std::vector<Partner>> pairs_of(n);
  std::vector<std::vector<std::uint32_t>> small_of(n), big_of(n);
  std::vector<std::uint32_t> big;  // net ids of the large nets
  for (std::uint32_t ni = 0; ni < num_nets; ++ni) {
    const std::span<const std::uint32_t> net_pins = pins.row(ni);
    if (net_pins.size() == 2) {
      pairs_of[net_pins[0]].push_back({ni, net_pins[1]});
      pairs_of[net_pins[1]].push_back({ni, net_pins[0]});
    } else if (net_pins.size() > kAlwaysRescanPins) {
      for (std::uint32_t c : net_pins)
        big_of[c].push_back(static_cast<std::uint32_t>(big.size()));
      big.push_back(ni);
    } else if (net_pins.size() > 2) {
      for (std::uint32_t c : net_pins) small_of[c].push_back(ni);
    }
  }
  const Rows<Partner> pairs(pairs_of);
  const Csr small_nets(small_of), big_nets(big_of);

  // Incremental cost: every net's HPWL, and the box of each large net, are
  // kept for the whole run, and `cost` is the sum of the HPWLs.
  std::vector<std::int32_t> wl(num_nets);
  std::int64_t cost = 0;
  for (std::uint32_t ni = 0; ni < num_nets; ++ni) {
    wl[ni] = span_hpwl(pins.row(ni), loc);
    cost += wl[ni];
  }
  std::vector<Box> box(big.size());
  for (std::size_t k = 0; k < big.size(); ++k)
    box[k] = bounding_box(pins.row(big[k]), loc);

  // The new HPWL of each net a move touches, and the new box of each large
  // one, committed only if the move is accepted.
  std::vector<std::pair<std::uint32_t, std::int32_t>> pending_wl;
  std::vector<std::pair<std::uint32_t, Box>> pending_box;
  // Returns the HPWL change of the nets of `cell`, which moved from `from`
  // to `to` (both cells of a swap already written to `loc`), and queues
  // their new values. A net `other` (the swapped cell, or -1) also holds
  // keeps its pin positions, so its HPWL stays: such nets are skipped. A
  // two-pin net needs no check, since the pair it joins moves to each
  // other's place and adds 0.
  auto evaluate = [&](hwlib::CellId cell, Coord from, Coord to,
                      std::int64_t other) {
    std::int64_t delta = 0;
    for (const Partner& p : pairs.row(cell)) {
      const Coord q = loc[p.cell];
      const std::int32_t hpwl = std::abs(to.x - q.x) + std::abs(to.y - q.y);
      delta += hpwl - wl[p.net];
      pending_wl.emplace_back(p.net, hpwl);
    }
    for (std::uint32_t ni : small_nets.row(cell)) {
      if (other >= 0 && contains(small_nets.row(other), ni)) continue;
      const std::int32_t hpwl = span_hpwl(pins.row(ni), loc);
      delta += hpwl - wl[ni];
      pending_wl.emplace_back(ni, hpwl);
    }
    for (std::uint32_t k : big_nets.row(cell)) {
      if (other >= 0 && contains(big_nets.row(other), k)) continue;
      Box bb = box[k];
      if (!move_pin(from.x, to.x, bb.xmin, bb.on_xmin, bb.xmax, bb.on_xmax) ||
          !move_pin(from.y, to.y, bb.ymin, bb.on_ymin, bb.ymax, bb.on_ymax))
        bb = bounding_box(pins.row(big[k]), loc);
      delta += bb.hpwl() - box[k].hpwl();
      pending_box.emplace_back(k, bb);
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
      const Coord pa = loc[a];
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
      loc[a] = pb;
      if (b >= 0) loc[static_cast<std::size_t>(b)] = pa;
      pending_wl.clear();
      pending_box.clear();
      std::int64_t delta = evaluate(a, pa, pb, b);
      if (b >= 0) delta += evaluate(static_cast<hwlib::CellId>(b), pb, pa, a);
      if (delta <= 0 || rng.uniform() < acceptance_probability(delta)) {
        for (const auto& [ni, hpwl] : pending_wl) wl[ni] = hpwl;
        for (const auto& [k, bb] : pending_box) box[k] = bb;
        occupant[site_index(pb)] = a;
        occupant[site_index(pa)] = b;
        cost += delta;
        ++accepted;
      } else {
        loc[a] = pa;
        if (b >= 0) loc[static_cast<std::size_t>(b)] = pb;
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

  // Free rows of each site column, ascending, with the columns of each kind
  // in ascending x. The free site nearest (cx, cy) is the nearest free row
  // above or below cy in one of the kind's columns; ties go to the lowest x,
  // then the lowest y.
  struct Column {
    std::uint16_t x = 0;
    std::vector<std::uint16_t> free_rows;
  };
  std::vector<Column> columns[3];
  for (std::uint16_t x = 0; x < fabric.width(); ++x) {
    Column col{x, std::vector<std::uint16_t>(fabric.height())};
    for (std::uint16_t y = 0; y < fabric.height(); ++y) col.free_rows[y] = y;
    columns[static_cast<int>(fabric.site(x, 0))].push_back(std::move(col));
  }

  auto take_nearest = [&](int kind, double cx, double cy) {
    Column* best_col = nullptr;
    std::vector<std::uint16_t>::iterator best_row;
    double best_d = 1e30;
    for (Column& col : columns[kind]) {
      std::vector<std::uint16_t>& rows = col.free_rows;
      const auto above = std::lower_bound(rows.begin(), rows.end(), cy);
      const double dx = col.x - cx;
      auto consider = [&](std::vector<std::uint16_t>::iterator row) {
        const double dy = *row - cy;
        const double d = dx * dx + dy * dy;
        if (d < best_d) {
          best_d = d;
          best_col = &col;
          best_row = row;
        }
      };
      if (above != rows.begin()) consider(above - 1);
      if (above != rows.end()) consider(above);
    }
    const Coord c{best_col->x, *best_row};
    best_col->free_rows.erase(best_row);
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
      pl.location[c] =
          take_nearest(site_kind_index(design.cells[c].kind), cx, cy);
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
