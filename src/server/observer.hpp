// Observer hook layer for the SpecializationServer — the service-level
// sibling of jit::PipelineObserver. The server emits typed lifecycle events
// (admission, rejection, session start, terminal outcome, drain) instead of
// ad-hoc prints, for tracing and tests. The counters behind `stats()` are
// kept by the server itself, not by an observer.
//
// Events fire from the submitting thread (`on_admitted`/`on_rejected`) and
// from worker sessions (everything else), so implementations must be
// internally synchronized, and must not call back into the server (they run
// outside the server's scheduler lock, but a re-entrant submit() from an
// observer would deadlock a drain).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "adaptive/policy.hpp"
#include "server/request.hpp"

namespace jitise::server {

class ServerObserver {
 public:
  virtual ~ServerObserver() = default;

  /// A request passed admission; `queue_depth` is the pending count right
  /// after it was enqueued (the high-water stat watches this).
  virtual void on_admitted(std::uint64_t /*id*/, const std::string& /*tenant*/,
                           std::size_t /*queue_depth*/) {}
  /// Backpressure: the request was turned away (`reason` says why — queue
  /// full, server draining). Its ticket is already terminal.
  virtual void on_rejected(std::uint64_t /*id*/, const std::string& /*tenant*/,
                           const std::string& /*reason*/) {}
  /// The request's (module, profile) signature matched a run already queued
  /// or executing: it was registered as a *follower* of `leader_id` instead
  /// of entering the admission queue (it holds no queue slot and no
  /// round-robin turn) and will resolve from the leader's result.
  virtual void on_coalesced(std::uint64_t /*id*/, const std::string& /*tenant*/,
                            std::uint64_t /*leader_id*/) {}
  /// A leader resolved without a result (cancelled/expired/failed) and this
  /// oldest surviving follower was promoted into a fresh run of its own,
  /// re-enqueued at its own priority; remaining followers now follow it.
  virtual void on_promoted(std::uint64_t /*id*/, const std::string& /*tenant*/,
                           std::uint64_t /*dead_leader_id*/) {}
  /// A session coordinator picked the request up and is about to run its
  /// pipeline.
  virtual void on_started(std::uint64_t /*id*/,
                          const std::string& /*tenant*/) {}
  /// The drift loop confirmed a phase change on `stream` (tenant/module).
  /// Fires from the thread calling observe_window().
  virtual void on_phase_change(const std::string& /*stream*/,
                               const adaptive::PhaseChange& /*change*/) {}
  /// The drift policy decided on a confirmed phase change: Keep (with
  /// `request_id` 0), or Respecialize with `request_id` the drift request
  /// submitted through the normal admission path. A rejected submission
  /// keeps its nonzero id — the one `on_rejected` already reported.
  virtual void on_drift(const std::string& /*stream*/,
                        const adaptive::DriftDecision& /*decision*/,
                        std::uint64_t /*request_id*/) {}
  /// Terminal outcome (Done/Failed/Cancelled/Expired). The reference is
  /// only guaranteed during the call.
  virtual void on_finished(const RequestOutcome& /*outcome*/) {}
  /// drain() finished: every admitted request is terminal and the shared
  /// journal (if any) flushed `synced_records` and possibly compacted.
  virtual void on_drained(std::size_t /*synced_records*/,
                          bool /*compacted*/) {}
};

/// Fans events out to a list of observers (none owned).
class ServerObserverList final : public ServerObserver {
 public:
  void add(ServerObserver* observer) {
    if (observer) observers_.push_back(observer);
  }

  void on_admitted(std::uint64_t id, const std::string& tenant,
                   std::size_t depth) override {
    for (auto* o : observers_) o->on_admitted(id, tenant, depth);
  }
  void on_rejected(std::uint64_t id, const std::string& tenant,
                   const std::string& reason) override {
    for (auto* o : observers_) o->on_rejected(id, tenant, reason);
  }
  void on_coalesced(std::uint64_t id, const std::string& tenant,
                    std::uint64_t leader_id) override {
    for (auto* o : observers_) o->on_coalesced(id, tenant, leader_id);
  }
  void on_promoted(std::uint64_t id, const std::string& tenant,
                   std::uint64_t dead_leader_id) override {
    for (auto* o : observers_) o->on_promoted(id, tenant, dead_leader_id);
  }
  void on_started(std::uint64_t id, const std::string& tenant) override {
    for (auto* o : observers_) o->on_started(id, tenant);
  }
  void on_phase_change(const std::string& stream,
                       const adaptive::PhaseChange& change) override {
    for (auto* o : observers_) o->on_phase_change(stream, change);
  }
  void on_drift(const std::string& stream,
                const adaptive::DriftDecision& decision,
                std::uint64_t request_id) override {
    for (auto* o : observers_) o->on_drift(stream, decision, request_id);
  }
  void on_finished(const RequestOutcome& outcome) override {
    for (auto* o : observers_) o->on_finished(outcome);
  }
  void on_drained(std::size_t synced, bool compacted) override {
    for (auto* o : observers_) o->on_drained(synced, compacted);
  }

 private:
  std::vector<ServerObserver*> observers_;
};

/// Mutex-guarded one-line-per-event stderr sink (the server's `--trace`
/// analogue of jit::TraceObserver).
class ServerTraceObserver final : public ServerObserver {
 public:
  explicit ServerTraceObserver(std::FILE* sink = stderr) : sink_(sink) {}

  void on_admitted(std::uint64_t id, const std::string& tenant,
                   std::size_t depth) override;
  void on_rejected(std::uint64_t id, const std::string& tenant,
                   const std::string& reason) override;
  void on_coalesced(std::uint64_t id, const std::string& tenant,
                    std::uint64_t leader_id) override;
  void on_promoted(std::uint64_t id, const std::string& tenant,
                   std::uint64_t dead_leader_id) override;
  void on_started(std::uint64_t id, const std::string& tenant) override;
  void on_phase_change(const std::string& stream,
                       const adaptive::PhaseChange& change) override;
  void on_drift(const std::string& stream,
                const adaptive::DriftDecision& decision,
                std::uint64_t request_id) override;
  void on_finished(const RequestOutcome& outcome) override;
  void on_drained(std::size_t synced, bool compacted) override;

 private:
  std::mutex mu_;
  std::FILE* sink_;
};

}  // namespace jitise::server
