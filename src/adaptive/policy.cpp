#include "adaptive/policy.hpp"

#include <unordered_set>
#include <utility>

#include "jit/breakeven.hpp"
#include "jit/pipeline.hpp"
#include "support/table.hpp"

namespace jitise::adaptive {

const char* drift_action_name(DriftAction action) noexcept {
  switch (action) {
    case DriftAction::None: return "none";
    case DriftAction::Keep: return "keep";
    case DriftAction::Respecialize: return "respecialize";
  }
  return "?";
}

WindowBenefit evaluate_window_benefit(
    const ir::Module& module, const vm::Profile& window,
    std::span<const std::uint64_t> installed,
    const jit::SpecializerConfig& config, hwlib::CircuitDb& db,
    estimation::EstimateCache* estimates) {
  // The pipeline's own search stage, priced with the greedy selector
  // whatever selector the server runs: the fresh side of the comparison is
  // the paper's heuristic, and it stays deterministic and cheap.
  jit::SpecializerConfig greedy = config;
  greedy.selector = jit::SpecializerConfig::Selector::Greedy;
  jit::PipelineObserver quiet;
  const jit::SearchArtifact art =
      jit::CandidateSearchStage(greedy).run(module, window, db, quiet,
                                            estimates);

  WindowBenefit out;
  const std::unordered_set<std::uint64_t> have(installed.begin(),
                                              installed.end());
  for (const ise::ScoredCandidate& sc : art.scored) {
    if (have.count(sc.signature) != 0 &&
        ise::selection_eligible(sc, config.select)) {
      out.installed_saving += sc.cycles_saved_total;
      ++out.matched;
    }
  }
  out.pool = art.scored.size();
  out.fresh_saving = art.selection.total_saving;
  out.fresh_signatures.reserve(art.selection.chosen.size());
  for (const std::size_t idx : art.selection.chosen)
    out.fresh_signatures.push_back(art.scored[idx].signature);
  return out;
}

RespecializationPolicy::RespecializationPolicy(
    const RespecializationConfig& config, jit::SpecializerConfig specializer,
    estimation::EstimateCache* estimates)
    : config_(config),
      specializer_(std::move(specializer)),
      estimates_(estimates) {}

void RespecializationPolicy::install(const std::string& stream,
                                     const jit::SpecializationResult& result) {
  std::vector<std::uint64_t> sigs;
  std::unordered_set<std::uint64_t> seen;
  for (const jit::ImplementedCandidate& impl : result.implemented)
    if (seen.insert(impl.signature).second) sigs.push_back(impl.signature);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = streams_.find(stream);
  if (it == streams_.end()) {
    it = streams_
             .emplace(stream, Stream{PhaseDetector(config_.detector), {}})
             .first;
  }
  it->second.installed = std::move(sigs);
}

std::vector<std::uint64_t> RespecializationPolicy::installed(
    const std::string& stream) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = streams_.find(stream);
  return it != streams_.end() ? it->second.installed
                              : std::vector<std::uint64_t>{};
}

DriftDecision RespecializationPolicy::observe(const std::string& stream,
                                              const ir::Module& module,
                                              const vm::Profile& window) {
  // One decision at a time per policy: pricing a window is milliseconds of
  // serial work and keeps detector state, installed sets and the decision
  // mutually consistent. (Per-stream locking would only matter with many
  // thousands of streams.)
  std::lock_guard<std::mutex> lock(mu_);
  auto it = streams_.find(stream);
  if (it == streams_.end()) {
    it = streams_
             .emplace(stream, Stream{PhaseDetector(config_.detector), {}})
             .first;
  }
  Stream& s = it->second;

  DriftDecision decision;
  decision.change = s.detector.observe(window);
  decision.phase = s.detector.current_phase();
  if (!decision.change) return decision;

  decision.benefit = evaluate_window_benefit(
      module, window, s.installed, specializer_, db_, estimates_);
  decision.retention = decision.benefit.retention();

  if (decision.benefit.fresh_saving <= 0.0) {
    decision.action = DriftAction::Keep;
    decision.reason = "nothing to gain under the new phase";
    return decision;
  }
  if (!s.installed.empty() &&
      decision.retention >= config_.retention_threshold) {
    decision.action = DriftAction::Keep;
    decision.reason = support::strf("installed set retains %.0f%%",
                                    100.0 * decision.retention);
    return decision;
  }

  const double gain =
      decision.benefit.fresh_saving - decision.benefit.installed_saving;
  if (config_.respec_cost_cycles > 0.0) {
    if (gain <= 0.0) {
      decision.action = DriftAction::Keep;
      decision.reason = "re-specializing would not gain cycles";
      return decision;
    }
    decision.break_even_windows =
        jit::executions_to_break_even(config_.respec_cost_cycles, gain);
    if (decision.break_even_windows > config_.horizon_windows) {
      decision.action = DriftAction::Keep;
      decision.reason = support::strf(
          "cost repaid only after %llu windows (horizon %llu)",
          static_cast<unsigned long long>(decision.break_even_windows),
          static_cast<unsigned long long>(config_.horizon_windows));
      return decision;
    }
  }

  decision.action = DriftAction::Respecialize;
  const std::unordered_set<std::uint64_t> fresh(
      decision.benefit.fresh_signatures.begin(),
      decision.benefit.fresh_signatures.end());
  for (const std::uint64_t sig : s.installed)
    if (fresh.count(sig) == 0) decision.stale.push_back(sig);
  decision.reason = support::strf(
      "retention %.0f%% below threshold, %zu stale slot(s)",
      100.0 * decision.retention, decision.stale.size());
  return decision;
}

}  // namespace jitise::adaptive
