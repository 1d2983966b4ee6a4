// SpecializationPipeline — runs the ASIP-SP phases in sequence and submits
// the per-candidate CAD fan-out as `Phase::Cad` tasks on the thread pool.
//
// Concurrency model: candidate search runs serially on the pipeline thread.
// Once it has produced the final selection, the pipeline thread collects the
// sweep — one entry per selected signature that is not already
// cache-resident — orders it by estimated area, largest first, and submits
// it in that order; each task writes its result into the signature's
// pre-created slot, whose address is stable. The pool starts tasks in
// submission order, so the longest CAD chains start first and the short
// ones fill in behind them. Dispatch (slot creation, dedup, cache probing,
// ordering) happens only on the pipeline thread; workers write only into
// their own slot.
//
// Once the sweep is submitted, the pipeline thread does not idle: it waits
// through ThreadPool::wait, which runs the sweep's still-queued chains on
// this thread, next-largest first, until none is left. The pool is borrowed
// when the caller owns a long-lived one (the server's shared pool); a
// direct call with a parallel config gets a private pool of `jobs - 1`
// workers, so `jobs` counts this thread.
#include "jit/pipeline.hpp"

#include <algorithm>
#include <utility>

#include "datapath/project.hpp"
#include "support/stopwatch.hpp"
#include "woolcano/rewriter.hpp"

namespace jitise::jit {

namespace {

/// The registry name of the candidate at selection position `k`; reports
/// and registry contents print it.
std::string candidate_name(const ir::Module& module,
                           const ise::Candidate& cand, std::size_t k) {
  return "ci_" + module.name + "_f" + std::to_string(cand.function) + "_b" +
         std::to_string(cand.block) + "_" + std::to_string(k);
}

}  // namespace

SpecializationResult SpecializationPipeline::run(const ir::Module& module,
                                                 const vm::Profile& profile) {
  hwlib::CircuitDb db;

  // `jobs = 1` forces serial execution. Otherwise a borrowed pool is used
  // whatever its width; without one, `jobs` (0 = hardware concurrency)
  // sizes a run-scoped private pool when it exceeds one: `jobs - 1` workers
  // plus this thread, which helps while it waits.
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
  SearchArtifact art =
      search_candidates(config_, module, profile, db, observers_, estimates_);
  std::vector<std::string> names(art.selection.chosen.size());
  // One slot per dispatched signature; each CAD task writes only its own.
  CadResults dispatched;
  support::TaskGroup cad_group;
  std::optional<support::ThreadPool> owned;

  // The scored candidate at selection position `k`.
  const auto chosen = [&](std::size_t k) -> const ise::ScoredCandidate& {
    return art.scored[art.selection.chosen[k]];
  };
  for (std::size_t k = 0; k < names.size(); ++k)
    names[k] = candidate_name(module, chosen(k).candidate, k);

  if (config_.implement_hardware) {
    // Phase boundary: a request cancelled during (or right after) search
    // stops before committing to the dispatch sweep.
    config_.cancel.check();
    observers_.on_phase_enter(PipelinePhase::Implementation);
    const support::Stopwatch impl_timer;
    support::ThreadPool* pool = pool_;
    if (pool == nullptr && parallel) {
      owned.emplace(jobs - 1);
      pool = &*owned;
    }
    // The sweep: the first selection position of each selected signature
    // that is not cache-resident, one CAD run each.
    std::vector<std::size_t> sweep;
    for (std::size_t k = 0; k < names.size(); ++k) {
      const std::uint64_t sig = chosen(k).signature;
      if (dispatched.count(sig) != 0) continue;
      if (cache_ != nullptr && cache_->contains(sig)) continue;
      dispatched.emplace(sig, std::nullopt);
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
      std::optional<cad::ImplementationResult>* slot = &dispatched.at(sig);
      observers_.on_candidate_dispatched(sig, /*speculative=*/false);
      // Captures by reference only state declared before `cad_group`.
      if (parallel)
        pool->submit(support::Phase::Cad, cad_group,
                     [this, &art, &names, &db, k, slot] {
                       *slot = implement(art, k, names[k], db);
                     });
      else
        *slot = implement(art, k, names[k], db);
    }
    if (parallel) pool->wait(cad_group);
    observers_.on_phase_exit(PipelinePhase::Implementation,
                             impl_timer.elapsed_ms());
  }

  // Phase boundary: last check before the order-sensitive serial tail (the
  // tail re-checks between candidates, never mid-mutation).
  config_.cancel.check();
  SpecializationResult result =
      adapt(module, profile, art, names, dispatched, db);

  // Persistence tail: the adaptation tail just populated the cache, so any
  // attached journal has buffered records — flush them (and compact when
  // the size/garbage trigger fires) so a crash between specializer runs
  // never loses the bitstreams this run paid for.
  if (cache_ != nullptr && config_.sync_cache_journal) {
    if (CacheJournalSink* journal = cache_->journal()) {
      if (config_.journal_fsync) journal->set_fsync(true);
      const std::size_t flushed = journal->sync();
      const bool compacted = journal->maybe_compact(*cache_);
      observers_.on_cache_journal_sync(flushed, compacted);
    }
  }
  return result;
}

// Pure with respect to pipeline state (the circuit database and observers
// are internally synchronized): the result depends only on the candidate's
// structure and signature-seeded jitter, never on the project name or the
// thread that ran it.
std::optional<cad::ImplementationResult> SpecializationPipeline::implement(
    const SearchArtifact& search, std::size_t k, const std::string& name,
    hwlib::CircuitDb& db) {
  const std::size_t idx = search.selection.chosen[k];
  const datapath::CadProject project = datapath::create_project(
      *search.graphs[search.graph_of[idx]], search.scored[idx].candidate, db,
      name);
  observers_.on_candidate_netlist(project.name, project.signature);
  // Cancellation point on whichever thread runs the chain: a cancelled
  // request skips the CAD flow before it starts, so no partial
  // implementation ever reaches the shared cache.
  config_.cancel.check();
  cad::ImplementationResult hw;
  try {
    hw = cad::implement_candidate(project, config_.flow);
  } catch (const fpga::CadError&) {
    observers_.on_candidate_failed(project.name, project.signature);
    return std::nullopt;
  }
  observers_.on_candidate_implemented(project.name, project.signature, hw);
  return hw;
}

// Running every order-sensitive effect here, in final selection order, is
// what makes jobs=N bit-identical to jobs=1.
SpecializationResult SpecializationPipeline::adapt(
    const ir::Module& module, const vm::Profile& profile,
    SearchArtifact& search, std::span<const std::string> names,
    const CadResults& dispatched, hwlib::CircuitDb& db) {
  observers_.on_phase_enter(PipelinePhase::Adaptation);
  support::Stopwatch timer;

  SpecializationResult result;
  result.candidates_found = search.scored.size();
  result.candidates_selected = search.selection.chosen.size();
  result.search_real_ms = search.search_real_ms;
  result.isegen = search.isegen;

  double saved_cycles_total = 0.0;
  for (std::size_t k = 0; k < search.selection.chosen.size(); ++k) {
    // Cancellation point: between candidates, before any of this
    // candidate's bookkeeping — never between a cache insert and its
    // journal record, so cancellation can't tear the shared cache state.
    config_.cancel.check();
    const std::size_t idx = search.selection.chosen[k];
    const ise::ScoredCandidate& sc = search.scored[idx];
    const estimation::CandidateEstimate& est = search.estimates[idx];
    const std::size_t block = search.graph_of[idx];
    const dfg::BlockDfg& graph = *search.graphs[block];
    ImplementedCandidate impl;
    impl.name = names[k];
    impl.signature = sc.signature;
    impl.instructions = sc.candidate.size();
    impl.area_slices = sc.area_slices;

    woolcano::CustomInstruction ci;
    ci.candidate = sc.candidate;
    ci.signature = sc.signature;
    ci.program = woolcano::snapshot_program(graph, sc.candidate);
    ci.area_slices = sc.area_slices;

    if (!config_.implement_hardware) {
      ci.hw_cycles = est.hw_cycles;
      ci.critical_path_ns = est.hw_latency_ns;
    } else {
      std::optional<CachedImplementation> hit;
      if (cache_) hit = cache_->lookup(impl.signature);
      if (hit) {
        observers_.on_cache_hit(impl.name, impl.signature);
        impl.cache_hit = true;
        impl.cells = hit->cells;
        ci.hw_cycles = hit->hw_cycles;
        ci.critical_path_ns = hit->critical_path_ns;
        ci.bitstream_bytes = hit->bitstream.size_bytes();
        // All generation stages are skipped: zero modeled seconds.
      } else {
        // Dispatched results are keyed by signature: identical datapaths
        // produce identical CAD results (jitter is signature-seeded), so
        // one slot serves every occurrence. A candidate that was
        // cache-resident at dispatch time and evicted (by another session,
        // or a capacity bound) before the tail reached this position was
        // never dispatched; its CAD chain runs here.
        const auto slot = dispatched.find(impl.signature);
        std::optional<cad::ImplementationResult> evicted;
        if (slot == dispatched.end())
          evicted = implement(search, k, names[k], db);
        const std::optional<cad::ImplementationResult>& hw =
            slot != dispatched.end() ? slot->second : evicted;
        if (!hw) {
          // Oversized or unroutable candidate: the tool flow rejects it
          // and the specializer simply drops it (it stays in software).
          ++result.candidates_failed;
          continue;
        }
        impl.cells = hw->cells;
        impl.c2v_s = hw->c2v.modeled_seconds;
        impl.syn_s = hw->syn.modeled_seconds;
        impl.xst_s = hw->xst.modeled_seconds;
        impl.tra_s = hw->tra.modeled_seconds;
        impl.map_s = hw->map.modeled_seconds;
        impl.par_s = hw->par.modeled_seconds;
        impl.bitgen_s = hw->bitgen.modeled_seconds;
        // STA measures interconnect over the coarse cluster netlist; the
        // component database carries each core's true combinational latency.
        // The effective FCM latency is bounded below by both.
        ci.critical_path_ns =
            std::max(hw->timing.critical_path_ns, est.hw_latency_ns);
        ci.hw_cycles = std::max(fcm_hw_cycles(ci.critical_path_ns, config_),
                                est.hw_cycles);
        ci.bitstream_bytes = hw->bitstream.size_bytes();
        if (cache_)
          cache_->insert(impl.signature,
                         CachedImplementation{hw->bitstream, ci.hw_cycles,
                                              ci.critical_path_ns,
                                              impl.area_slices, hw->cells,
                                              impl.total_seconds()});
      }
    }
    impl.hw_cycles = ci.hw_cycles;
    impl.bitstream_bytes = ci.bitstream_bytes;

    // Cycle bookkeeping for the predicted speedup: actual hardware cycles
    // replace the estimate in the saving. A candidate whose implemented
    // latency turned out no better than software is *not activated* (the VM
    // keeps the software path), but its generation cost was already paid —
    // exactly the paper's accounting, where every implemented candidate
    // contributes to the overhead regardless of its eventual benefit.
    const double saved_per_exec = static_cast<double>(est.sw_cycles) -
                                  static_cast<double>(ci.hw_cycles);
    const bool activated = saved_per_exec > 0.0;
    if (activated)
      saved_cycles_total +=
          saved_per_exec *
          static_cast<double>(search.prune.blocks[block].exec_count);

    result.sum_const_s += impl.const_seconds();
    result.sum_map_s += impl.map_s;
    result.sum_par_s += impl.par_s;
    result.sum_total_s += impl.total_seconds();
    if (activated) result.registry.add(std::move(ci));
    result.implemented.push_back(std::move(impl));
  }

  result.prune = std::move(search.prune);
  result.rewritten = woolcano::rewrite_module(module, result.registry);
  const double base = static_cast<double>(profile.cpu_cycles);
  const double accel = base - saved_cycles_total;
  result.predicted_speedup = accel > 0.0 && base > 0.0 ? base / accel : 1.0;
  observers_.on_phase_exit(PipelinePhase::Adaptation, timer.elapsed_ms());
  return result;
}

}  // namespace jitise::jit
