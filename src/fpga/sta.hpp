// Static timing analysis over the placed & routed design.
//
// Cell delays by kind plus per-hop wire delay along each routed net. The
// design is combinational between the FCM input and output registers, so the
// critical path is the longest cell+wire path from any PortIn to any PortOut.
#pragma once

#include <cstdint>

#include "fpga/route.hpp"

namespace jitise::fpga {

struct DelayModel {
  double cluster_ns = 0.65;   // ~2 LUT levels of a -10 speed grade Virtex-4
  double dsp_ns = 4.0;
  double bram_ns = 2.6;
  double port_ns = 0.5;       // FCM interface register + routing into region
  double wire_hop_ns = 0.22;  // switchbox + segment per tile hop
};

struct TimingReport {
  double critical_path_ns = 0.0;
  double fmax_mhz = 0.0;
  std::uint32_t logic_levels = 0;  // cells on the critical path
  bool combinational_loop = false;
};

/// Longest-path analysis. Wire delay of a net is hops x wire_hop_ns where
/// hops is the routed path length from the driver to the specific sink
/// (approximated by the net's tree depth toward that sink). `routing` is
/// `route`'s result for `placement`: its edge order (each sink's path
/// listed from the sink back to the tree) is what the depths are built in.
[[nodiscard]] TimingReport analyze_timing(const MappedDesign& design,
                                          const Fabric& fabric,
                                          const Placement& placement,
                                          const RoutingResult& routing,
                                          const DelayModel& delays = {});

}  // namespace jitise::fpga
