// The ASIP Specialization Process (Fig. 2) as one pipeline body.
//
// SpecializationPipeline::run() walks the paper's phases in sequence:
//
//   candidate search      search_candidates(): prune -> identify ->
//                         estimate -> select -> SearchArtifact
//   netlist generation +  implement(), per selected candidate: datapath
//   implementation        project, then the CAD flow syn..bitgen
//   adaptation            adapt(): cache/registry/accounting serial tail
//                         + rewrite -> SpecializationResult
//
// Candidate search runs serially on the calling thread; CAD is dispatched
// only for the final selection, largest estimated design first, and its
// per-candidate chains are the pipeline's one fan-out: `Phase::Cad` tasks
// on one support::ThreadPool — either a borrowed, long-lived pool (the
// server's, so many sessions share one bounded worker set) or a
// pipeline-private pool for direct `specialize()` calls. The calling thread
// runs the sweep's still-queued chains itself while it waits
// (ThreadPool::wait), so it never idles behind the workers. Results stay
// bit-identical to the serial run because CAD results are keyed by
// candidate signature (all jitter is signature-seeded) and everything
// order-sensitive runs in the adaptation tail in final selection order.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "jit/observer.hpp"
#include "jit/specializer.hpp"
#include "support/thread_pool.hpp"

namespace jitise::jit {

/// Phase-1 output: everything candidate search learned, plus the graphs the
/// later phases need (graphs are owned here so candidate node ids stay
/// valid for netlist generation and program snapshotting; `graphs[b]` is
/// the DFG of `prune.blocks[b]`).
struct SearchArtifact {
  ise::PruneResult prune;
  std::vector<std::unique_ptr<dfg::BlockDfg>> graphs;  // one per pruned block
  std::vector<ise::ScoredCandidate> scored;            // all found candidates
  std::vector<estimation::CandidateEstimate> estimates;  // parallel to scored
  std::vector<std::size_t> graph_of;  // scored index -> graphs index
  ise::Selection selection;           // indices into `scored`
  ise::IsegenStats isegen;            // filled when Selector::Isegen ran
  double search_real_ms = 0.0;
};

/// Candidate search: prunes, then searches the pruned blocks one after
/// another on the calling thread, then selects once over the full candidate
/// pool.
///
/// `estimates` (optional) memoizes whole-candidate estimation by
/// signature; estimates are pure functions of candidate structure, so the
/// artifact is bit-identical with or without it.
[[nodiscard]] SearchArtifact search_candidates(
    const SpecializerConfig& config, const ir::Module& module,
    const vm::Profile& profile, hwlib::CircuitDb& db,
    PipelineObserver& observer,
    estimation::EstimateCache* estimates = nullptr);

class SpecializationPipeline {
 public:
  /// `cache`, `estimates` and `pool` are borrowed, may be shared across
  /// concurrent pipelines (all are internally synchronized), and may be
  /// null. With a null `pool` and more than one resolved `jobs`, run()
  /// spins up a private ThreadPool of `jobs - 1` workers for its CAD sweep;
  /// with a non-null one (the server's shared pool), this pipeline submits
  /// its `Phase::Cad` tasks there unless `jobs = 1`, and owns no threads at
  /// all. Either way the calling thread runs its own queued chains while it
  /// waits for the sweep.
  explicit SpecializationPipeline(const SpecializerConfig& config,
                                  BitstreamCache* cache = nullptr,
                                  estimation::EstimateCache* estimates = nullptr,
                                  support::ThreadPool* pool = nullptr)
      : config_(config), cache_(cache), estimates_(estimates), pool_(pool) {}

  /// Registers an observer (not owned; must outlive run()).
  void add_observer(PipelineObserver* observer) { observers_.add(observer); }

  [[nodiscard]] SpecializationResult run(const ir::Module& module,
                                         const vm::Profile& profile);

 private:
  /// The CAD sweep's results by candidate signature; nullopt where the tool
  /// flow rejected the design.
  using CadResults =
      std::unordered_map<std::uint64_t,
                         std::optional<cad::ImplementationResult>>;

  /// Netlist generation and instruction implementation of selection
  /// position `k`, on whichever thread runs it. nullopt means the tool flow
  /// rejected the design (it does not fit or does not route).
  [[nodiscard]] std::optional<cad::ImplementationResult> implement(
      const SearchArtifact& search, std::size_t k, const std::string& name,
      hwlib::CircuitDb& db);

  /// The order-sensitive serial tail: cache population, cycle accounting,
  /// registry insertion and the binary rewrite, in final selection order.
  /// `search` stays borrowed (only `prune` is moved out of it) because a
  /// candidate evicted from the cache after dispatch is implemented here.
  [[nodiscard]] SpecializationResult adapt(const ir::Module& module,
                                           const vm::Profile& profile,
                                           SearchArtifact& search,
                                           std::span<const std::string> names,
                                           const CadResults& dispatched,
                                           hwlib::CircuitDb& db);

  SpecializerConfig config_;
  BitstreamCache* cache_;
  estimation::EstimateCache* estimates_ = nullptr;
  support::ThreadPool* pool_ = nullptr;
  ObserverList observers_;
};

}  // namespace jitise::jit
