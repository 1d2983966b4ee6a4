// The Instruction Implementation phase: orchestrates the FPGA CAD stages
// Check Syntax -> Synthesis (XST) -> Translate -> Map -> Place&Route ->
// Bitstream Generation for one candidate's CAD project (paper Figure 2,
// §V-C).
//
// Every stage runs its real algorithm (and is timed), and also reports
// modeled wall-clock seconds from the calibrated Xilinx runtime model —
// those modeled values are what the overhead and break-even experiments
// consume.
#pragma once

#include <cstdint>
#include <string>

#include "cad/runtime_model.hpp"
#include "cad/syntax.hpp"
#include "datapath/project.hpp"
#include "fpga/bitgen.hpp"
#include "fpga/sta.hpp"

namespace jitise::cad {

struct StageReport {
  std::string name;
  double modeled_seconds = 0.0;  // calibrated Xilinx-flow estimate
  double real_ms = 0.0;          // our implementation, measured
};

struct ImplementationResult {
  std::string name;
  std::uint64_t signature = 0;

  // Design statistics after synthesis/mapping.
  std::size_t cells = 0;
  std::size_t nets = 0;
  std::size_t clb_cells = 0;
  std::size_t dsp_cells = 0;
  std::size_t bram_cells = 0;

  double placement_hpwl = 0.0;
  std::uint64_t routed_wirelength = 0;
  std::uint32_t route_iterations = 0;
  fpga::TimingReport timing;
  fpga::Bitstream bitstream;

  StageReport c2v, syn, xst, tra, map, par, bitgen;

  /// Total modeled Xilinx-flow seconds (the paper's per-candidate cost).
  [[nodiscard]] double total_modeled_seconds() const noexcept {
    return c2v.modeled_seconds + syn.modeled_seconds + xst.modeled_seconds +
           tra.modeled_seconds + map.modeled_seconds + par.modeled_seconds +
           bitgen.modeled_seconds;
  }
  /// The paper's `const` column: everything except map and PAR.
  [[nodiscard]] double constant_modeled_seconds() const noexcept {
    return total_modeled_seconds() - map.modeled_seconds - par.modeled_seconds;
  }
};

struct ToolFlowConfig {
  fpga::FabricConfig fabric = fpga::FabricConfig::woolcano_pr_region();
  CadRuntimeModel runtime;
  fpga::PlacerConfig placer;
  fpga::DelayModel delays;
};

/// Runs the complete implementation flow for one project.
/// Throws fpga::CadError (or std::runtime_error) on syntax/DRC/fit failures.
[[nodiscard]] ImplementationResult implement_candidate(
    const datapath::CadProject& project, const ToolFlowConfig& config = {});

}  // namespace jitise::cad
