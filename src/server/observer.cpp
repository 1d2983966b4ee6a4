#include "server/observer.hpp"

namespace jitise::server {

void ServerTraceObserver::on_admitted(std::uint64_t id,
                                      const std::string& tenant,
                                      std::size_t depth) {
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(sink_, "[server] admit   #%llu tenant=%s depth=%zu\n",
               static_cast<unsigned long long>(id), tenant.c_str(), depth);
}

void ServerTraceObserver::on_rejected(std::uint64_t id,
                                      const std::string& tenant,
                                      const std::string& reason) {
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(sink_, "[server] reject  #%llu tenant=%s (%s)\n",
               static_cast<unsigned long long>(id), tenant.c_str(),
               reason.c_str());
}

void ServerTraceObserver::on_coalesced(std::uint64_t id,
                                       const std::string& tenant,
                                       std::uint64_t leader_id) {
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(sink_, "[server] coalesc #%llu tenant=%s follows #%llu\n",
               static_cast<unsigned long long>(id), tenant.c_str(),
               static_cast<unsigned long long>(leader_id));
}

void ServerTraceObserver::on_promoted(std::uint64_t id,
                                      const std::string& tenant,
                                      std::uint64_t dead_leader_id) {
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(sink_, "[server] promote #%llu tenant=%s (leader #%llu died)\n",
               static_cast<unsigned long long>(id), tenant.c_str(),
               static_cast<unsigned long long>(dead_leader_id));
}

void ServerTraceObserver::on_started(std::uint64_t id,
                                     const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(sink_, "[server] start   #%llu tenant=%s\n",
               static_cast<unsigned long long>(id), tenant.c_str());
}

void ServerTraceObserver::on_phase_change(const std::string& stream,
                                          const adaptive::PhaseChange& change) {
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(sink_,
               "[server] phase   %s window=%llu %u->%u%s\n", stream.c_str(),
               static_cast<unsigned long long>(change.window_index),
               change.from_phase, change.to_phase,
               change.new_phase ? " (new)" : "");
}

void ServerTraceObserver::on_drift(const std::string& stream,
                                   const adaptive::DriftDecision& decision,
                                   std::uint64_t request_id) {
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(sink_,
               "[server] drift   %s %s retention=%.0f%% stale=%zu"
               " resubmit=#%llu — %s\n",
               stream.c_str(), adaptive::drift_action_name(decision.action),
               100.0 * decision.retention, decision.stale.size(),
               static_cast<unsigned long long>(request_id),
               decision.reason.c_str());
}

void ServerTraceObserver::on_finished(const RequestOutcome& outcome) {
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(sink_,
               "[server] %-7s #%llu tenant=%s total=%.2fms cad=%zu%s%s\n",
               state_name(outcome.state),
               static_cast<unsigned long long>(outcome.id),
               outcome.tenant.c_str(), outcome.total_ms,
               outcome.progress.dispatched,
               outcome.reason.empty() ? "" : " — ", outcome.reason.c_str());
}

void ServerTraceObserver::on_drained(std::size_t synced, bool compacted) {
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(sink_, "[server] drained (journal records synced=%zu%s)\n",
               synced, compacted ? ", compacted" : "");
}

}  // namespace jitise::server
