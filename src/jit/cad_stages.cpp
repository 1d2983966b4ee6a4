// Phases 2+3 — Netlist Generation and Instruction Implementation for one
// candidate. Both stages are pure with respect to pipeline state (the
// circuit database and observers are internally synchronized), so the
// pipeline may run them on any worker thread: the result depends only on
// the candidate's structure and signature-seeded jitter, never on the
// project name or the thread that ran it.
#include "jit/pipeline.hpp"

namespace jitise::jit {

NetlistArtifact NetlistGenStage::run(const dfg::BlockDfg& graph,
                                     const ise::Candidate& candidate,
                                     hwlib::CircuitDb& db,
                                     const std::string& name,
                                     PipelineObserver& observer) const {
  NetlistArtifact art{datapath::create_project(graph, candidate, db, name)};
  observer.on_candidate_netlist(art.project.name, art.project.signature);
  return art;
}

ImplementationArtifact ImplementationStage::run(
    const NetlistArtifact& netlist, PipelineObserver& observer) const {
  // Stage-boundary cancellation point (runs on whichever worker owns the
  // candidate): a cancelled request skips the CAD flow before it starts, so
  // no partial implementation ever reaches the shared cache.
  config_.cancel.check();
  ImplementationArtifact art;
  try {
    art.hw = cad::implement_candidate(netlist.project, config_.flow);
  } catch (const fpga::CadError&) {
    art.failed = true;
    observer.on_candidate_failed(netlist.project.name,
                                 netlist.project.signature);
    return art;
  }
  observer.on_candidate_implemented(netlist.project.name,
                                    netlist.project.signature, art.hw);
  return art;
}

}  // namespace jitise::jit
