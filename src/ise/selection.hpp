// Candidate selection under hardware budgets (paper §III, "Selection").
//
// After identification and estimation, the best candidates are chosen under
// the Woolcano resource constraints: FPGA area in the partial-reconfiguration
// region and the number of FCM instruction slots. This is a 0/1 knapsack;
// the default is a deterministic density-greedy heuristic, with an exact
// dynamic-programming solver available for ablation.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ise/candidate.hpp"

namespace jitise::ise {

/// A candidate with its estimated worth and cost (filled by the estimation
/// module; selection treats them as opaque numbers).
struct ScoredCandidate {
  Candidate candidate;
  double cycles_saved_total = 0.0;  // over the profiled execution
  /// Pipeline-aware refined saving (operand-transfer overlap + result
  /// forwarding, estimation::CandidateEstimate::saved_per_exec_refined x
  /// exec count). The ISEGEN selector uses it to order moves and break
  /// plateaus; 0 when the caller only filled the base score.
  double cycles_saved_refined = 0.0;
  double area_slices = 0.0;
  std::uint64_t signature = 0;
};

struct SelectConfig {
  double area_budget_slices = 8192;   // partial region of the 4FX100
  std::size_t max_instructions = 32;  // FCM opcode slots (UDI space)
  double min_saving = 1.0;            // candidates must actually help
  bool require_single_output = true;  // FCM interface is single-result
};

struct Selection {
  std::vector<std::size_t> chosen;  // indices into the scored span
  double total_saving = 0.0;
  double total_area = 0.0;
};

/// The eligibility predicate every selector (greedy, knapsack, ISEGEN)
/// shares: positive saving (a degenerate zero/negative/NaN estimate can
/// never be selected, whatever `min_saving` says), `min_saving`,
/// single-output when required, and fitting the area budget alone.
[[nodiscard]] bool selection_eligible(const ScoredCandidate& sc,
                                      const SelectConfig& config) noexcept;

/// Greedy by saving/area density (deterministic, O(n log n)).
[[nodiscard]] Selection select_greedy(std::span<const ScoredCandidate> scored,
                                      const SelectConfig& config = {});

/// Exact 0/1 knapsack over discretized area (for ablation; O(n * budget)).
[[nodiscard]] Selection select_knapsack(std::span<const ScoredCandidate> scored,
                                        const SelectConfig& config = {},
                                        double area_granularity = 32.0);

}  // namespace jitise::ise
