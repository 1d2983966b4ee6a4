// Drift-driven re-specialization policy: closes the loop the one-shot
// pipeline leaves open. The PhaseDetector watches each tenant's window
// stream; on a confirmed phase change the policy re-runs the cheap front of
// the pipeline (prune -> identify -> estimate -> greedy-select, no CAD)
// against the *new* window to price the *installed* custom instructions
// under it. When the installed set retains enough of the freshly achievable
// saving, the change is absorbed (Keep); when it does not, and the modeled
// re-specialization cost is repaid within the configured horizon of windows
// (jit::executions_to_break_even), the policy orders a re-specialization:
// the server re-submits through the normal admission queue with a
// Trigger::Drift tag. Stale slots leave only the stream's installed set; the
// shared BitstreamCache keeps their bitstreams for a returning phase.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "adaptive/phase.hpp"
#include "estimation/estimator.hpp"
#include "hwlib/component.hpp"
#include "jit/specializer.hpp"

namespace jitise::adaptive {

/// How one window values the installed instruction set against a fresh one.
struct WindowBenefit {
  /// Cycles/window the *installed* signatures save under this window.
  double installed_saving = 0.0;
  /// Cycles/window a fresh greedy selection for this window would save.
  double fresh_saving = 0.0;
  /// Signatures that fresh selection would pick.
  std::vector<std::uint64_t> fresh_signatures;
  /// Candidate occurrences in this window matching an installed signature.
  std::size_t matched = 0;
  /// Candidate pool size the window produced.
  std::size_t pool = 0;

  /// Share of the freshly achievable saving the installed set retains
  /// (1 when nothing fresh is achievable — there is nothing to chase).
  [[nodiscard]] double retention() const noexcept {
    return fresh_saving > 0.0
               ? (installed_saving < fresh_saving ? installed_saving /
                                                        fresh_saving
                                                  : 1.0)
               : 1.0;
  }
};

/// Prices `installed` candidate signatures under `window`: runs the
/// pipeline's jit::search_candidates (prune -> identify -> estimate) with
/// the greedy selector, whatever `config.selector` says, reusing the shared
/// EstimateCache so repeated pricing of recurring phases is nearly free.
/// Deterministic; never runs CAD.
[[nodiscard]] WindowBenefit evaluate_window_benefit(
    const ir::Module& module, const vm::Profile& window,
    std::span<const std::uint64_t> installed,
    const jit::SpecializerConfig& config, hwlib::CircuitDb& db,
    estimation::EstimateCache* estimates);

struct RespecializationConfig {
  PhaseDetectorConfig detector;
  /// Keep the installed set when it retains at least this share of the
  /// freshly achievable saving under the new phase's window.
  double retention_threshold = 0.5;
  /// Modeled cost of one re-specialization, in CPU cycles (pipeline +
  /// reconfiguration, amortized). 0 = re-specialize whenever stale.
  double respec_cost_cycles = 0.0;
  /// The re-specialization must break even within this many windows of the
  /// new phase (jit::executions_to_break_even over per-window saving).
  std::uint64_t horizon_windows = 8;
};

enum class DriftAction : std::uint8_t {
  None,          // no confirmed phase change at this window
  Keep,          // confirmed change, installed set still earns its slots
  Respecialize,  // confirmed change, resubmit to replace stale slots
};

[[nodiscard]] const char* drift_action_name(DriftAction action) noexcept;

/// Outcome of observing one window for one stream.
struct DriftDecision {
  DriftAction action = DriftAction::None;
  /// Confirmed phase after this window.
  std::uint32_t phase = 0;
  /// Set when this window confirmed a change.
  std::optional<PhaseChange> change;
  /// Priced only on a confirmed change (default-constructed otherwise).
  WindowBenefit benefit;
  double retention = 1.0;
  /// Windows of the new phase needed to repay respec_cost_cycles (0 when no
  /// cost is charged or the action is not Respecialize).
  std::uint64_t break_even_windows = 0;
  /// Installed signatures the fresh selection drops — the slots the drift
  /// request replaces (each listed once).
  std::vector<std::uint64_t> stale;
  /// One-line human-readable rationale (trace/table output).
  std::string reason;
};

/// Per-stream drift policy. A *stream* is one tenant's window sequence for
/// one module ("tenant/module"); each stream owns a PhaseDetector and the
/// set of candidate signatures currently installed for it. Thread-safe (the
/// server calls observe/install from client and session threads).
class RespecializationPolicy {
 public:
  RespecializationPolicy(const RespecializationConfig& config,
                         jit::SpecializerConfig specializer,
                         estimation::EstimateCache* estimates = nullptr);

  /// Records the signatures a completed specialization installed for
  /// `stream` (called when a request — client- or drift-triggered —
  /// resolves Done). One slot per distinct signature, in first-occurrence
  /// order: a datapath selected in two blocks is installed once.
  void install(const std::string& stream,
               const jit::SpecializationResult& result);

  /// Feeds one closed window and decides.
  [[nodiscard]] DriftDecision observe(const std::string& stream,
                                      const ir::Module& module,
                                      const vm::Profile& window);

  [[nodiscard]] std::vector<std::uint64_t> installed(
      const std::string& stream) const;

 private:
  struct Stream {
    PhaseDetector detector;
    std::vector<std::uint64_t> installed;
  };

  RespecializationConfig config_;
  jit::SpecializerConfig specializer_;
  estimation::EstimateCache* estimates_;  // borrowed; may be null
  hwlib::CircuitDb db_;  // estimation memo (internally synchronized)
  mutable std::mutex mu_;
  std::map<std::string, Stream> streams_;
};

}  // namespace jitise::adaptive
