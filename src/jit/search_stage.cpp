// Phase 1 — Candidate Search: prune -> identify -> estimate -> select.
//
// One serial loop on the calling thread: each pruned block gets its DFG,
// its MAXMISO / UnionMISO candidates and their estimates, in block order;
// selection then runs once, over the full candidate pool, after the last
// block. The pipeline dispatches CAD only for that final selection. Search
// takes a fraction of a millisecond to a few milliseconds per request, so a
// per-block fan-out onto the thread pool lost more to task hand-off than it won
// (DESIGN §6a).
#include "jit/pipeline.hpp"

#include <memory>
#include <utility>

#include "ise/identify.hpp"
#include "support/stopwatch.hpp"

namespace jitise::jit {

SearchArtifact CandidateSearchStage::run(
    const ir::Module& module, const vm::Profile& profile, hwlib::CircuitDb& db,
    PipelineObserver& observer, estimation::EstimateCache* estimates) const {
  config_.cancel.check();
  observer.on_phase_enter(PipelinePhase::CandidateSearch);
  support::Stopwatch timer;

  SearchArtifact art;
  art.prune = ise::prune_blocks(module, profile, config_.cpu, config_.prune);

  for (std::size_t b = 0; b < art.prune.blocks.size(); ++b) {
    // Cancellation point between blocks: a cancelled search leaves a
    // consistent prefix of searched blocks.
    config_.cancel.check();
    support::Stopwatch block_timer;
    const ise::PrunedBlock& blk = art.prune.blocks[b];
    auto graph = std::make_unique<dfg::BlockDfg>(
        module.functions[blk.function], blk.block);
    std::vector<ise::Candidate> candidates =
        config_.identify == SpecializerConfig::Identify::UnionMiso
            ? ise::find_union_misos(*graph)
            : ise::find_max_misos(*graph);
    const std::size_t graph_index = art.graphs.size();
    for (ise::Candidate& cand : candidates) {
      cand.function = blk.function;
      // Signature first: it keys the whole-candidate estimate memo (and,
      // later, the CAD-result slots), deduplicating structurally identical
      // candidates across blocks, apps and tenants.
      const std::uint64_t signature = ise::candidate_signature(*graph, cand);
      const auto est = estimation::estimate_candidate_cached(
          *graph, cand, db, config_.cpu, config_.fcm, signature, estimates);
      ise::ScoredCandidate scored;
      scored.signature = signature;
      scored.candidate = std::move(cand);
      scored.cycles_saved_total =
          est.saved_per_exec * static_cast<double>(blk.exec_count);
      scored.cycles_saved_refined =
          est.saved_per_exec_refined * static_cast<double>(blk.exec_count);
      scored.area_slices = est.area_slices;
      art.scored.push_back(std::move(scored));
      art.estimates.push_back(est);
      art.graph_of.push_back(graph_index);
    }
    art.graphs.push_back(std::move(graph));
    observer.on_block_searched(b, candidates.size(), block_timer.elapsed_ms());
  }

  switch (config_.selector) {
    case SpecializerConfig::Selector::Greedy:
      art.selection = ise::select_greedy(art.scored, config_.select);
      break;
    case SpecializerConfig::Selector::Knapsack:
      art.selection = ise::select_knapsack(art.scored, config_.select);
      break;
    case SpecializerConfig::Selector::Isegen:
      art.selection =
          ise::select_isegen(art.scored, config_.select, config_.isegen,
                             config_.cancel, &art.isegen);
      observer.on_selection_refined(art.isegen);
      break;
  }
  art.search_real_ms = timer.elapsed_ms();
  observer.on_phase_exit(PipelinePhase::CandidateSearch, art.search_real_ms);
  return art;
}

}  // namespace jitise::jit
