// SpecializationPipeline — composes the four ASIP-SP stages and submits the
// per-candidate CAD fan-out as `Phase::Cad` tasks on the executor.
//
// Concurrency model: every CAD result is keyed by candidate *signature* and
// written into a pre-created slot with a stable address. Dispatch (slot
// creation, dedup, cache probing) happens only on the pipeline thread;
// workers write only into their own slot. With `overlap_phases`, the search
// stage's per-block callback streams the provisional selection into CAD
// tasks while search keeps running — safe because CAD results are
// numerically name-independent (all jitter is signature-seeded), so
// speculative runs use placeholder names and the serial tail attaches the
// canonical position-dependent name afterwards.
//
// There is no per-phase worker budget: search, estimation and CAD tasks
// share one executor and idle workers steal across phases. The executor is
// borrowed when the caller owns a long-lived one (the server's shared pool);
// a direct call with a parallel config gets a run-scoped private pool.
#include "jit/pipeline.hpp"

#include <cstdio>
#include <deque>
#include <optional>
#include <unordered_map>

#include "support/stopwatch.hpp"
#include "support/work_stealing_pool.hpp"

namespace jitise::jit {

namespace {

std::string hex_signature(std::uint64_t sig) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(sig));
  return buf;
}

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

  // `jobs = 1` forces serial execution. Otherwise a borrowed executor is
  // used whatever its width; without one, `jobs` (0 = hardware concurrency)
  // sizes a run-scoped private pool when it exceeds one.
  const unsigned jobs = config_.jobs != 0
                            ? config_.jobs
                            : support::WorkStealingPool::default_workers();
  const bool parallel = executor_ != nullptr ? config_.jobs != 1 : jobs > 1;
  const bool hardware = config_.implement_hardware;
  const bool parallel_cad = hardware && parallel;
  const bool overlap = parallel_cad && config_.overlap_phases;

  // Lifetime choreography, outermost first: tasks reference the artifact's
  // graphs and the slots, so both must outlive every task. `cad_group`'s
  // destructor waits for this run's CAD tasks (the unwind guarantee when
  // the executor is borrowed and lives on); a private pool is declared
  // last, so its draining destructor runs while everything tasks touch is
  // still alive.
  SearchArtifact art;
  // Deque: stable element addresses while the pipeline thread keeps growing
  // it; workers only ever touch their own pre-created slot.
  std::deque<ImplementationArtifact> slots;
  std::unordered_map<std::uint64_t, ImplementationArtifact*> by_sig;
  support::TaskGroup cad_group;
  std::optional<support::WorkStealingPool> owned;
  std::optional<support::Stopwatch> impl_timer;

  support::Executor* exec = executor_;
  if (exec == nullptr && parallel) {
    owned.emplace(jobs);
    exec = &*owned;
  }

  auto enter_implementation = [&] {
    if (impl_timer) return;
    impl_timer.emplace();
    obs.on_phase_enter(PipelinePhase::Implementation);
  };

  // Dispatches the Phase 2+3 chain for `art.scored[idx]` unless its
  // signature is already covered (cache-resident, or dispatched earlier —
  // speculatively or not). Runs inline with a serial config (jobs=1).
  auto dispatch = [&](std::size_t idx, std::string name, bool speculative) {
    const std::uint64_t sig = art.scored[idx].signature;
    if (by_sig.count(sig) != 0) return;
    if (cache_ != nullptr && cache_->contains(sig)) return;
    enter_implementation();
    slots.emplace_back();
    ImplementationArtifact* slot = &slots.back();
    by_sig.emplace(sig, slot);
    obs.on_candidate_dispatched(sig, speculative);
    // `art.scored`/`art.graphs` keep growing during overlap: capture the
    // candidate by value and the graph by stable pointee address.
    const dfg::BlockDfg* graph = art.graphs[art.graph_of[idx]].get();
    auto task = [this, graph, cand = art.scored[idx].candidate,
                 name = std::move(name), slot, &db, &obs] {
      *slot = implement_.run(netlist_.run(*graph, cand, db, name, obs), obs);
    };
    if (parallel_cad)
      exec->submit(support::Phase::Cad, cad_group, std::move(task));
    else
      task();
  };

  CandidateSearchStage::BlockScoredFn on_block;
  if (overlap) {
    on_block = [&](const SearchArtifact& partial,
                   const ise::Selection& provisional) {
      for (std::size_t idx : provisional.chosen)
        dispatch(idx,
                 "ci_" + module.name + "_spec_" +
                     hex_signature(partial.scored[idx].signature),
                 /*speculative=*/true);
    };
  }

  search_.run(module, profile, db, obs, art, on_block,
              parallel ? exec : nullptr, estimates_);

  std::vector<std::string> names(art.selection.chosen.size());
  for (std::size_t k = 0; k < names.size(); ++k)
    names[k] = candidate_name(
        module, art.scored[art.selection.chosen[k]].candidate, k);

  if (hardware) {
    // Stage boundary: a request cancelled during (or right after) search
    // stops before committing to the final dispatch sweep.
    config_.cancel.check();
    enter_implementation();
    for (std::size_t k = 0; k < art.selection.chosen.size(); ++k)
      dispatch(art.selection.chosen[k], names[k], /*speculative=*/false);
    if (parallel_cad) cad_group.wait();
    obs.on_phase_exit(PipelinePhase::Implementation, impl_timer->elapsed_ms());
  }

  // Stage boundary: last check before the order-sensitive serial tail (the
  // tail re-checks between candidates, never mid-mutation).
  config_.cancel.check();

  const AdaptationStage::ImplLookupFn lookup =
      [&](std::uint64_t sig) -> const ImplementationArtifact* {
    const auto it = by_sig.find(sig);
    return it == by_sig.end() ? nullptr : it->second;
  };
  const AdaptationStage::SerialCadFn serial_cad = [&](std::size_t k) {
    const std::size_t idx = art.selection.chosen[k];
    return implement_.run(
        netlist_.run(*art.graphs[art.graph_of[idx]], art.scored[idx].candidate,
                     db, names[k], obs),
        obs);
  };
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
