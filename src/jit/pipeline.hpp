// The ASIP Specialization Process as an explicit staged pipeline.
//
// The paper's three phases (Fig. 1/2) plus the adaptation phase map onto
// four composable stages behind narrow interfaces, each producing a typed
// artifact:
//
//   CandidateSearchStage  prune -> identify -> estimate -> select
//                         -> SearchArtifact
//   NetlistGenStage       datapath project creation (per candidate)
//                         -> NetlistArtifact
//   ImplementationStage   CAD flow syn..bitgen (per candidate)
//                         -> ImplementationArtifact
//   AdaptationStage       cache/registry/accounting serial tail + rewrite
//                         -> SpecializationResult
//
// SpecializationPipeline composes them in sequence, as in the paper's
// Fig. 2. Candidate search runs serially on the calling thread; CAD is
// dispatched only for the final selection, largest estimated design first,
// and its per-candidate chains are the pipeline's one fan-out: `Phase::Cad`
// tasks on one support::ThreadPool — either a borrowed, long-lived pool
// (the server's, so many sessions share one bounded worker set) or a
// pipeline-private pool for direct `specialize()` calls. Results stay
// bit-identical to the serial run because CAD results are keyed by
// candidate signature (all jitter is signature-seeded) and everything
// order-sensitive runs in the AdaptationStage tail in final selection
// order.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "datapath/project.hpp"
#include "jit/observer.hpp"
#include "jit/specializer.hpp"
#include "support/thread_pool.hpp"

namespace jitise::jit {

/// Phase-1 output: everything candidate search learned, plus the graphs the
/// later stages need (graphs are owned here so candidate node ids stay
/// valid for netlist generation and program snapshotting).
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

class CandidateSearchStage {
 public:
  explicit CandidateSearchStage(const SpecializerConfig& config)
      : config_(config) {}

  /// Prunes, then searches the pruned blocks one after another on the
  /// calling thread, then selects once over the full candidate pool.
  ///
  /// `estimates` (optional) memoizes whole-candidate estimation by
  /// signature; estimates are pure functions of candidate structure, so the
  /// artifact is bit-identical with or without it.
  [[nodiscard]] SearchArtifact run(
      const ir::Module& module, const vm::Profile& profile,
      hwlib::CircuitDb& db, PipelineObserver& observer,
      estimation::EstimateCache* estimates = nullptr) const;

 private:
  const SpecializerConfig& config_;
};

/// Phase-2 output for one candidate.
struct NetlistArtifact {
  datapath::CadProject project;
};

class NetlistGenStage {
 public:
  [[nodiscard]] NetlistArtifact run(const dfg::BlockDfg& graph,
                                    const ise::Candidate& candidate,
                                    hwlib::CircuitDb& db,
                                    const std::string& name,
                                    PipelineObserver& observer) const;
};

/// Phase-3 output for one candidate.
struct ImplementationArtifact {
  bool failed = false;  // the tool flow rejected the candidate (fit/route)
  cad::ImplementationResult hw;
};

class ImplementationStage {
 public:
  explicit ImplementationStage(const SpecializerConfig& config)
      : config_(config) {}

  [[nodiscard]] ImplementationArtifact run(const NetlistArtifact& netlist,
                                           PipelineObserver& observer) const;

 private:
  const SpecializerConfig& config_;
};

class AdaptationStage {
 public:
  /// Resolves a pre-generated implementation for a candidate signature
  /// (nullptr when nothing was dispatched for it).
  using ImplLookupFn =
      std::function<const ImplementationArtifact*(std::uint64_t signature)>;
  /// Runs the per-candidate CAD chain serially for selection position `k`
  /// (fallback when a dispatch-time cache entry was evicted).
  using SerialCadFn =
      std::function<ImplementationArtifact(std::size_t k)>;

  AdaptationStage(const SpecializerConfig& config, BitstreamCache* cache)
      : config_(config), cache_(cache) {}

  /// The order-sensitive serial tail: cache population, cycle accounting,
  /// registry insertion and the binary rewrite, in final selection order.
  /// `search` stays borrowed (only `prune` is moved out of it) because the
  /// serial-CAD fallback still reads its graphs mid-run.
  [[nodiscard]] SpecializationResult run(const ir::Module& module,
                                         const vm::Profile& profile,
                                         SearchArtifact& search,
                                         std::span<const std::string> names,
                                         const ImplLookupFn& lookup,
                                         const SerialCadFn& serial_cad,
                                         PipelineObserver& observer) const;

 private:
  const SpecializerConfig& config_;
  BitstreamCache* cache_;
};

class SpecializationPipeline {
 public:
  /// `cache`, `estimates` and `pool` are borrowed, may be shared across
  /// concurrent pipelines (all are internally synchronized), and may be
  /// null. With a null `pool` and more than one resolved `jobs`, run()
  /// spins up a private ThreadPool for its CAD sweep; with a non-null one
  /// (the server's shared pool), this pipeline submits its `Phase::Cad`
  /// tasks there unless `jobs = 1`, and owns no threads at all.
  explicit SpecializationPipeline(const SpecializerConfig& config,
                                  BitstreamCache* cache = nullptr,
                                  estimation::EstimateCache* estimates = nullptr,
                                  support::ThreadPool* pool = nullptr)
      : config_(config),
        cache_(cache),
        estimates_(estimates),
        pool_(pool),
        search_(config_),
        implement_(config_),
        adapt_(config_, cache_) {}

  /// Registers an observer (not owned; must outlive run()).
  void add_observer(PipelineObserver* observer) { observers_.add(observer); }

  [[nodiscard]] SpecializationResult run(const ir::Module& module,
                                         const vm::Profile& profile);

 private:
  SpecializerConfig config_;
  BitstreamCache* cache_;
  estimation::EstimateCache* estimates_ = nullptr;
  support::ThreadPool* pool_ = nullptr;
  CandidateSearchStage search_;
  NetlistGenStage netlist_;
  ImplementationStage implement_;
  AdaptationStage adapt_;
  ObserverList observers_;
};

}  // namespace jitise::jit
