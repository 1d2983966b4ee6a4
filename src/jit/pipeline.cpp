// SpecializationPipeline — composes the four ASIP-SP stages and submits the
// per-candidate CAD fan-out as `Phase::Cad` tasks on the thread pool.
//
// Concurrency model: the stages run in sequence. Candidate search runs
// serially on the pipeline thread. Once it has produced the final
// selection, the pipeline thread collects the sweep — one entry per
// selected signature that is not already cache-resident — orders it by
// estimated area, largest first, and submits it in that order; each task
// writes its result into a pre-created slot with a stable address. The pool
// starts tasks in submission order, so the longest CAD chains start first
// and the short ones fill in behind them. Dispatch (slot creation, dedup,
// cache probing, ordering) happens only on the pipeline thread; workers
// write only into their own slot.
//
// The pool is borrowed when the caller owns a long-lived one (the server's
// shared pool); a direct call with a parallel config gets a private pool
// for the CAD sweep.
#include "jit/pipeline.hpp"

#include <algorithm>
#include <deque>
#include <optional>
#include <unordered_map>

#include "support/stopwatch.hpp"

namespace jitise::jit {

namespace {

/// The pre-refactor naming scheme for selected candidates, kept verbatim so
/// registry contents and reports stay byte-identical across the refactor.
std::string candidate_name(const ir::Module& module,
                           const ise::Candidate& cand, std::size_t k) {
  return "ci_" + module.name + "_f" + std::to_string(cand.function) + "_b" +
         std::to_string(cand.block) + "_" + std::to_string(k);
}

}  // namespace

SpecializationResult SpecializationPipeline::run(const ir::Module& module,
                                                 const vm::Profile& profile) {
  hwlib::CircuitDb db;
  PipelineObserver& obs = observers_;

  // `jobs = 1` forces serial execution. Otherwise a borrowed pool is used
  // whatever its width; without one, `jobs` (0 = hardware concurrency)
  // sizes a run-scoped private pool when it exceeds one.
  const unsigned jobs = config_.jobs != 0
                            ? config_.jobs
                            : support::ThreadPool::default_workers();
  const bool parallel = pool_ != nullptr ? config_.jobs != 1 : jobs > 1;

  // Lifetime choreography, outermost first: CAD tasks reference the
  // artifact, the names and the slots, so all must outlive every task.
  // `cad_group`'s destructor waits for this run's CAD tasks (the unwind
  // guarantee when the pool is borrowed and lives on); a private pool is
  // declared last, so its draining destructor runs while everything tasks
  // touch is still alive.
  SearchArtifact art = search_.run(module, profile, db, obs, estimates_);
  std::vector<std::string> names(art.selection.chosen.size());
  // Deque: stable element addresses while the pipeline thread appends;
  // workers only ever touch their own pre-created slot.
  std::deque<ImplementationArtifact> slots;
  std::unordered_map<std::uint64_t, ImplementationArtifact*> by_sig;
  support::TaskGroup cad_group;
  std::optional<support::ThreadPool> owned;

  // The scored candidate at selection position `k`.
  const auto chosen = [&](std::size_t k) -> const ise::ScoredCandidate& {
    return art.scored[art.selection.chosen[k]];
  };
  for (std::size_t k = 0; k < names.size(); ++k)
    names[k] = candidate_name(module, chosen(k).candidate, k);

  // The Phase 2+3 chain for selection position `k`. Captures by reference
  // only state declared before `cad_group`, so tasks may hold a copy.
  const auto implement = [&](std::size_t k) {
    const std::size_t idx = art.selection.chosen[k];
    return implement_.run(
        netlist_.run(*art.graphs[art.graph_of[idx]], art.scored[idx].candidate,
                     db, names[k], obs),
        obs);
  };

  if (config_.implement_hardware) {
    // Stage boundary: a request cancelled during (or right after) search
    // stops before committing to the dispatch sweep.
    config_.cancel.check();
    obs.on_phase_enter(PipelinePhase::Implementation);
    const support::Stopwatch impl_timer;
    support::ThreadPool* pool = pool_;
    if (pool == nullptr && parallel) {
      owned.emplace(jobs);
      pool = &*owned;
    }
    // The sweep: the first selection position of each selected signature
    // that is not cache-resident, one CAD run each.
    std::vector<std::size_t> sweep;
    for (std::size_t k = 0; k < names.size(); ++k) {
      const std::uint64_t sig = chosen(k).signature;
      if (by_sig.count(sig) != 0) continue;
      if (cache_ != nullptr && cache_->contains(sig)) continue;
      by_sig.emplace(sig, &slots.emplace_back());
      sweep.push_back(k);
    }
    // Largest estimated area first: CAD time grows with design size, and a
    // large design that starts last holds up the whole sweep. Ties keep
    // selection order. Inline, in the same order, with a serial config.
    std::stable_sort(sweep.begin(), sweep.end(),
                     [&](std::size_t a, std::size_t b) {
                       return chosen(a).area_slices > chosen(b).area_slices;
                     });
    for (const std::size_t k : sweep) {
      const std::uint64_t sig = chosen(k).signature;
      ImplementationArtifact* slot = by_sig.at(sig);
      obs.on_candidate_dispatched(sig, /*speculative=*/false);
      if (parallel)
        pool->submit(support::Phase::Cad, cad_group,
                     [implement, k, slot] { *slot = implement(k); });
      else
        *slot = implement(k);
    }
    if (parallel) cad_group.wait();
    obs.on_phase_exit(PipelinePhase::Implementation, impl_timer.elapsed_ms());
  }

  // Stage boundary: last check before the order-sensitive serial tail (the
  // tail re-checks between candidates, never mid-mutation).
  config_.cancel.check();

  const AdaptationStage::ImplLookupFn lookup =
      [&](std::uint64_t sig) -> const ImplementationArtifact* {
    const auto it = by_sig.find(sig);
    return it == by_sig.end() ? nullptr : it->second;
  };
  const AdaptationStage::SerialCadFn serial_cad = implement;
  SpecializationResult result =
      adapt_.run(module, profile, art, names, lookup, serial_cad, obs);

  // Persistence tail: the adaptation stage just populated the cache, so any
  // attached journal has buffered records — flush them (and compact when
  // the size/garbage trigger fires) so a crash between specializer runs
  // never loses the bitstreams this run paid for.
  if (cache_ != nullptr && config_.sync_cache_journal) {
    if (CacheJournalSink* journal = cache_->journal()) {
      if (config_.journal_fsync) journal->set_fsync(true);
      const std::size_t flushed = journal->sync();
      const bool compacted = journal->maybe_compact(*cache_);
      obs.on_cache_journal_sync(flushed, compacted);
    }
  }
  return result;
}

}  // namespace jitise::jit
