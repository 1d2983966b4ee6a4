// Phase 1 — Candidate Search: prune -> identify -> estimate -> select.
//
// Candidates are scored block by block; selection runs once, over the full
// candidate pool, after the last block is absorbed. The pipeline dispatches
// CAD only for that final selection.
//
// Concurrency model: every pruned block is an independent unit of work (its
// own DFG, its own candidates, its own estimates). With an executor, each
// block becomes a `Phase::Search` task (DFG construction + MAXMISO /
// UnionMISO identification) that chains a `Phase::Estimate` task
// (per-candidate estimation + scoring) — two tags so an idle worker can
// steal whichever phase is backed up. Tasks produce self-contained
// BlockSearchResults; a serial reducer on the pipeline thread absorbs them
// strictly in block order (out-of-order completions wait in their
// OrderedReducer slot), so the artifact and observer events are
// bit-identical to the serial loop. Shared state touched by workers is
// limited to the CircuitDb memo caches, which are internally synchronized
// and value-deterministic regardless of insertion order.
#include "jit/pipeline.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <utility>

#include "ise/identify.hpp"
#include "support/executor.hpp"
#include "support/ordered_reducer.hpp"
#include "support/stopwatch.hpp"

namespace jitise::jit {

namespace {

/// Output of a block's identification half, handed from its Search task to
/// its Estimate task.
struct IdentifiedBlock {
  std::unique_ptr<dfg::BlockDfg> graph;
  std::vector<ise::Candidate> candidates;
  std::uint64_t exec_count = 0;
  double identify_ms = 0.0;
};

/// Everything searching one pruned block produces, self-contained so it can
/// be computed on any thread and absorbed later.
struct BlockSearchResult {
  std::unique_ptr<dfg::BlockDfg> graph;
  std::vector<ise::ScoredCandidate> scored;
  std::vector<estimation::CandidateEstimate> estimates;
  double real_ms = 0.0;
  std::exception_ptr error;  // set instead of the payload on failure
};

}  // namespace

void CandidateSearchStage::run(const ir::Module& module,
                               const vm::Profile& profile, hwlib::CircuitDb& db,
                               PipelineObserver& observer, SearchArtifact& out,
                               support::Executor* executor,
                               estimation::EstimateCache* estimates) const {
  config_.cancel.check();
  observer.on_phase_enter(PipelinePhase::CandidateSearch);
  support::Stopwatch timer;

  SearchArtifact& art = out;
  art.prune = ise::prune_blocks(module, profile, config_.cpu, config_.prune);

  // Identification half of a block: DFG construction plus candidate
  // discovery. Deterministic per block and independent across blocks, so it
  // may run on any thread in any order.
  const auto identify_block = [&](std::size_t b) {
    // Worker-side cancellation point: lets a cancelled run's not-yet-started
    // block tasks exit immediately instead of searching to be discarded.
    config_.cancel.check();
    IdentifiedBlock ib;
    support::Stopwatch block_timer;
    const ise::PrunedBlock& blk = art.prune.blocks[b];
    ib.graph = std::make_unique<dfg::BlockDfg>(module.functions[blk.function],
                                               blk.block);
    ib.candidates = config_.identify == SpecializerConfig::Identify::UnionMiso
                        ? ise::find_union_misos(*ib.graph)
                        : ise::find_max_misos(*ib.graph);
    for (ise::Candidate& cand : ib.candidates) cand.function = blk.function;
    ib.exec_count = blk.exec_count;
    ib.identify_ms = block_timer.elapsed_ms();
    return ib;
  };

  // Estimation half: per-candidate estimation + scoring. Same thread-safety
  // story; runs as its own Phase::Estimate task when fanned out.
  const auto estimate_block = [&](IdentifiedBlock ib) {
    BlockSearchResult res;
    support::Stopwatch block_timer;
    for (ise::Candidate& cand : ib.candidates) {
      // Signature first: it keys the whole-candidate estimate memo (and,
      // later, the CAD-result slots), deduplicating structurally identical
      // candidates across blocks, apps and tenants.
      const std::uint64_t signature = ise::candidate_signature(*ib.graph, cand);
      const auto est = estimation::estimate_candidate_cached(
          *ib.graph, cand, db, config_.cpu, config_.fcm, signature, estimates);
      ise::ScoredCandidate scored;
      scored.signature = signature;
      scored.candidate = std::move(cand);
      scored.cycles_saved_total =
          est.saved_per_exec * static_cast<double>(ib.exec_count);
      scored.cycles_saved_refined =
          est.saved_per_exec_refined * static_cast<double>(ib.exec_count);
      scored.area_slices = est.area_slices;
      res.scored.push_back(std::move(scored));
      res.estimates.push_back(est);
    }
    res.graph = std::move(ib.graph);
    res.real_ms = ib.identify_ms + block_timer.elapsed_ms();
    return res;
  };

  // The serial reducer body: everything order-sensitive. Always runs on the
  // pipeline thread, strictly in block order — this is what keeps any
  // executor schedule bit-identical to the serial loop.
  const auto absorb = [&](std::size_t b, BlockSearchResult&& res) {
    // Cancellation point: between blocks, on the pipeline thread, before
    // the block's results touch the artifact — a cancelled search leaves a
    // consistent prefix of absorbed blocks.
    config_.cancel.check();
    observer.on_block_searched(b, res.scored.size(), res.real_ms);
    const std::size_t graph_index = art.graphs.size();
    for (std::size_t i = 0; i < res.scored.size(); ++i) {
      art.scored.push_back(std::move(res.scored[i]));
      art.estimates.push_back(res.estimates[i]);
      art.graph_of.push_back(graph_index);
    }
    art.graphs.push_back(std::move(res.graph));
  };

  const std::size_t nblocks = art.prune.blocks.size();
  if (executor == nullptr || executor->workers() <= 1 || nblocks <= 1) {
    for (std::size_t b = 0; b < nblocks; ++b)
      absorb(b, estimate_block(identify_block(b)));
  } else {
    support::OrderedReducer<BlockSearchResult> reducer(nblocks);
    // Declared after the reducer (and everything the tasks reference): its
    // destructor blocks until every task of this run finished, so even when
    // the reducer loop below throws, no task still references this frame —
    // the guarantee that makes sharing a server-wide executor safe.
    support::TaskGroup group;
    for (std::size_t b = 0; b < nblocks; ++b) {
      executor->submit(support::Phase::Search, group, [&, b] {
        // Tasks never leak exceptions into the group: every error lands in
        // the block's reducer slot so it propagates in block order below.
        try {
          // The chained Estimate task lands on this worker's own deque
          // (run next here, LIFO) unless an idle worker steals it.
          auto ib =
              std::make_shared<IdentifiedBlock>(identify_block(b));
          executor->submit(support::Phase::Estimate, group, [&, b, ib] {
            BlockSearchResult res;
            try {
              res = estimate_block(std::move(*ib));
            } catch (...) {
              res.error = std::current_exception();
            }
            reducer.put(b, std::move(res));
          });
        } catch (...) {
          BlockSearchResult res;
          res.error = std::current_exception();
          reducer.put(b, std::move(res));
        }
      });
    }
    for (std::size_t b = 0; b < nblocks; ++b) {
      BlockSearchResult res = reducer.take(b);
      if (res.error) {
        // Match serial error semantics: the first failing block (in block
        // order, not completion order) propagates; later blocks' results
        // are discarded. Quiesce our tasks first so none still references
        // this frame.
        group.wait();
        std::rethrow_exception(res.error);
      }
      absorb(b, std::move(res));
    }
    group.wait();
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
}

}  // namespace jitise::jit
