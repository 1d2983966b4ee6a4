#include "fpga/sta.hpp"

#include <vector>

namespace jitise::fpga {

namespace {

double cell_delay(hwlib::CellKind kind, const DelayModel& d) {
  switch (kind) {
    case hwlib::CellKind::Cluster: return d.cluster_ns;
    case hwlib::CellKind::Dsp: return d.dsp_ns;
    case hwlib::CellKind::Bram: return d.bram_ns;
    case hwlib::CellKind::PortIn:
    case hwlib::CellKind::PortOut: return d.port_ns;
  }
  return 0.0;
}

}  // namespace

TimingReport analyze_timing(const MappedDesign& design, const Fabric& fabric,
                            const Placement& placement,
                            const RoutingResult& routing,
                            const DelayModel& delays) {
  TimingReport report;
  const std::size_t n = design.cells.size();

  // Wire delay per (net, sink): the sink tile's depth on the net's routed
  // tree, wire_hop_ns per hop from the driver tile; 0 when the sink shares
  // the driver's tile.
  const std::uint16_t w = fabric.width();
  auto tile_of = [&](hwlib::CellId c) {
    const Coord p = placement.location[c];
    return static_cast<std::uint32_t>(p.y) * w + p.x;
  };

  // Build cell adjacency (driver -> sink) with edge delays.
  struct Arc {
    hwlib::CellId to;
    double delay;
  };
  std::vector<std::vector<Arc>> arcs(n);
  std::vector<std::uint32_t> indegree(n, 0);

  // Tile depths of the current net: depth[t] holds only while
  // reached[t] == ni + 1. Each tree tile has one incoming edge, so its depth
  // is its parent's plus one hop. `route` lists each sink's path from the
  // sink back to the tree, so a path's edges are buffered until the one
  // leaving a tile already on the tree, then resolved from there outward.
  const std::size_t num_tiles = static_cast<std::size_t>(w) * fabric.height();
  std::vector<double> depth(num_tiles, 0.0);
  std::vector<std::size_t> reached(num_tiles, 0);
  std::vector<std::uint32_t> path;
  for (std::size_t ni = 0; ni < design.nets.size(); ++ni) {
    const MappedNet& net = design.nets[ni];
    const std::size_t stamp = ni + 1;
    reached[tile_of(net.driver)] = stamp;
    depth[tile_of(net.driver)] = 0.0;
    if (ni < routing.nets.size()) {
      path.clear();
      for (std::uint32_t eid : routing.nets[ni].edges) {
        path.push_back(eid);
        if (reached[edge_from(eid)] != stamp) continue;
        for (auto it = path.rbegin(); it != path.rend(); ++it) {
          const std::uint32_t to = edge_to(*it, w);
          depth[to] = depth[edge_from(*it)] + delays.wire_hop_ns;
          reached[to] = stamp;
        }
        path.clear();
      }
    }
    for (hwlib::CellId s : net.sinks) {
      const std::uint32_t t = tile_of(s);
      arcs[net.driver].push_back(Arc{s, reached[t] == stamp ? depth[t] : 0.0});
      ++indegree[s];
    }
  }

  // Longest path by Kahn topological order.
  std::vector<double> arrival(n, 0.0);
  std::vector<std::uint32_t> level(n, 1);
  std::vector<hwlib::CellId> ready;
  for (hwlib::CellId c = 0; c < n; ++c) {
    arrival[c] = cell_delay(design.cells[c].kind, delays);
    if (indegree[c] == 0) ready.push_back(c);
  }
  std::size_t processed = 0;
  while (!ready.empty()) {
    const hwlib::CellId c = ready.back();
    ready.pop_back();
    ++processed;
    for (const Arc& arc : arcs[c]) {
      const double t =
          arrival[c] + arc.delay + cell_delay(design.cells[arc.to].kind, delays);
      if (t > arrival[arc.to]) {
        arrival[arc.to] = t;
        level[arc.to] = level[c] + 1;
      }
      if (--indegree[arc.to] == 0) ready.push_back(arc.to);
    }
  }
  if (processed != n) {
    report.combinational_loop = true;
    report.critical_path_ns = 1e9;
    return report;
  }

  for (hwlib::CellId c = 0; c < n; ++c) {
    if (arrival[c] > report.critical_path_ns) {
      report.critical_path_ns = arrival[c];
      report.logic_levels = level[c];
    }
  }
  report.fmax_mhz =
      report.critical_path_ns > 0 ? 1000.0 / report.critical_path_ns : 0.0;
  return report;
}

}  // namespace jitise::fpga
