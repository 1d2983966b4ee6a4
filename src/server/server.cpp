#include "server/server.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>
#if defined(__GLIBC__)
#include <malloc.h>  // malloc_trim
#endif

#include "jit/pipeline.hpp"

namespace jitise::server {

namespace {

using Clock = std::chrono::steady_clock;

/// Anytime selection (Selector::Isegen only): the fraction of a request's
/// remaining deadline headroom — deadline minus the queue wait already
/// spent — granted to the ISEGEN refinement loop as its wall-clock budget.
/// The rest is reserved for CAD and the adaptation tail.
constexpr double kIsegenHeadroom = 0.5;

[[nodiscard]] double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Applies the documented zero defaults: `workers = 0` means one pool
/// worker, `max_sessions = 0` one session per worker.
[[nodiscard]] ServerConfig normalized(ServerConfig config) {
  if (config.workers == 0) config.workers = 1;
  if (config.max_sessions == 0) config.max_sessions = config.workers;
  return config;
}

/// The drift policy's per-stream key: one tenant's window sequence for one
/// module.
[[nodiscard]] std::string stream_key(const std::string& tenant,
                                     const ir::Module& module) {
  return (tenant.empty() ? std::string("default") : tenant) + "/" +
         module.name;
}

}  // namespace

/// Per-session progress tap: counts pipeline events into atomics (CAD events
/// fire from pool workers).
class SpecializationServer::SessionPipelineObserver final
    : public jit::PipelineObserver {
 public:
  void on_phase_exit(jit::PipelinePhase phase, double) override {
    if (phase != jit::PipelinePhase::CandidateSearch) return;
    search_complete_.store(true, std::memory_order_relaxed);
  }
  void on_block_searched(std::size_t, std::size_t candidates,
                         double) override {
    blocks_.fetch_add(1, std::memory_order_relaxed);
    found_.fetch_add(candidates, std::memory_order_relaxed);
  }
  void on_candidate_dispatched(std::uint64_t, bool) override {
    dispatched_.fetch_add(1, std::memory_order_relaxed);
  }
  void on_candidate_implemented(const std::string&, std::uint64_t,
                                const cad::ImplementationResult&) override {
    implemented_.fetch_add(1, std::memory_order_relaxed);
  }
  void on_candidate_failed(const std::string&, std::uint64_t) override {
    failed_.fetch_add(1, std::memory_order_relaxed);
  }
  void on_selection_refined(const ise::IsegenStats& stats) override {
    // Fires once per run, from the pipeline thread; plain stores suffice.
    isegen_iterations_.store(stats.iterations, std::memory_order_relaxed);
    isegen_accepted_.store(stats.accepted, std::memory_order_relaxed);
    isegen_delta_.store(stats.best_saving - stats.seed_saving,
                        std::memory_order_relaxed);
    isegen_ran_.store(true, std::memory_order_relaxed);
  }

  [[nodiscard]] RequestProgress progress() const {
    RequestProgress p;
    p.blocks_searched = blocks_.load(std::memory_order_relaxed);
    p.candidates_found = found_.load(std::memory_order_relaxed);
    p.dispatched = dispatched_.load(std::memory_order_relaxed);
    p.implemented = implemented_.load(std::memory_order_relaxed);
    p.cad_failures = failed_.load(std::memory_order_relaxed);
    p.search_complete = search_complete_.load(std::memory_order_relaxed);
    p.isegen_ran = isegen_ran_.load(std::memory_order_relaxed);
    p.isegen_iterations = isegen_iterations_.load(std::memory_order_relaxed);
    p.isegen_accepted = isegen_accepted_.load(std::memory_order_relaxed);
    p.isegen_saving_delta = isegen_delta_.load(std::memory_order_relaxed);
    return p;
  }

 private:
  std::atomic<std::size_t> blocks_{0};
  std::atomic<std::size_t> found_{0};
  std::atomic<std::size_t> dispatched_{0};
  std::atomic<std::size_t> implemented_{0};
  std::atomic<std::size_t> failed_{0};
  std::atomic<bool> search_complete_{false};
  std::atomic<bool> isegen_ran_{false};
  std::atomic<std::size_t> isegen_iterations_{0};
  std::atomic<std::size_t> isegen_accepted_{0};
  std::atomic<double> isegen_delta_{0.0};
};

SpecializationServer::SpecializationServer(ServerConfig config)
    : config_(normalized(std::move(config))),
      cache_(config_.cache_capacity_bytes),
      pool_(config_.workers),
      started_at_(Clock::now()) {
  if (config_.adaptive) {
    policy_.emplace(config_.respec, config_.specializer, &estimates_);
  }
  if (!config_.cache_journal_file.empty()) {
    journal_.emplace(config_.cache_journal_file);
    journal_->set_fsync(config_.specializer.journal_fsync);
    journal_->attach(cache_);
  }
  // One coordinator thread per session slot. Coordinators run their
  // request's candidate search, then submit CAD tasks and, while they wait,
  // run their own still-queued ones; the pool above holds `workers` CAD
  // threads, and each coordinator adds itself only to its own sweep.
  threads_.reserve(config_.max_sessions);
  for (unsigned i = 0; i < config_.max_sessions; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

SpecializationServer::~SpecializationServer() {
  try {
    drain();
  } catch (...) {
    // Best effort: journal I/O failure must not escape a destructor; the
    // queue itself is always drained before drain() can throw.
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
  // Detach the sink before members destruct so the cache never touches a
  // dead journal (members die in reverse order: journal_ before cache_).
  cache_.set_journal(nullptr);
}

Ticket SpecializationServer::submit(SpecializationRequest request) {
  // A request's latency and deadline start at the call: hashing its module
  // below is time the client already waits.
  const Clock::time_point submitted_at = Clock::now();
  if (request.tenant.empty()) request.tenant = "default";
  // Hash outside the scheduler lock — the signature is a pure function of
  // the request's content.
  const std::uint64_t signature =
      jit::request_signature(*request.module, *request.profile);
  auto state = std::make_shared<detail::TicketState>();
  state->submitted_at = submitted_at;

  std::string reject_reason;
  std::size_t depth = 0;
  std::uint64_t id = 0;
  std::uint64_t leader_id = 0;     // nonzero: registered as a follower
  std::vector<Session> dead;       // swept out of a full queue
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = ++next_id_;
    state->outcome.id = id;
    state->outcome.tenant = request.tenant;
    state->outcome.signature = signature;
    state->outcome.trigger = request.trigger;
    if (draining_ || stopping_) {
      reject_reason = "server draining";
    } else {
      if (request.deadline_ms > 0.0) {
        state->cancel.set_deadline(
            submitted_at + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(
                                   request.deadline_ms)));
      }
      const auto inflight = inflight_.find(signature);
      if (inflight != inflight_.end()) {
        // Coalesce: ride the in-flight run as a follower. No queue slot, no
        // round-robin turn — the ticket resolves from the leader's result.
        leader_id = inflight->second.leader_id;
        state->outcome.coalesced = true;
        state->outcome.leader_id = leader_id;
        inflight->second.followers.push_back(
            Session{id, std::move(request), state, signature});
      } else {
        if (pending_count_ >= config_.queue_capacity) {
          // The queue may be stuffed with requests that were cancelled or
          // expired while waiting; sweep those out before turning live
          // traffic away.
          sweep_dead_pending_locked(dead);
        }
        if (pending_count_ >= config_.queue_capacity) {
          reject_reason = "admission queue full (capacity " +
                          std::to_string(config_.queue_capacity) + ")";
        } else {
          enqueue_locked(Session{id, std::move(request), state, signature});
          inflight_.emplace(signature, InFlight{id, {}});
          depth = pending_count_;
        }
      }
    }
    if (!dead.empty()) ++settling_;
  }

  // Dead swept sessions resolve outside the lock (cohort-aware: a swept
  // leader promotes its oldest surviving follower).
  for (Session& d : dead) finish_unstarted(d);
  if (!dead.empty()) {
    std::lock_guard<std::mutex> lock(mu_);
    --settling_;
    if (pending_count_ == 0 && running_ == 0 && settling_ == 0) {
      idle_cv_.notify_all();
    }
  }

  const std::string& tenant = state->outcome.tenant;
  if (!reject_reason.empty()) {
    {
      std::lock_guard<std::mutex> lock(state->mu);
      state->outcome.state = RequestState::Rejected;
      state->outcome.reason = reject_reason;
      state->terminal = true;
    }
    state->cv.notify_all();
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.admission_rejections;
      auto& ts = stats_.tenants[tenant];
      ++ts.submitted;
      ++ts.rejected;
      tenant_first_.emplace(tenant, Clock::now());
    }
    observers_.on_rejected(id, tenant, reject_reason);
    return Ticket(std::move(state));
  }

  if (leader_id != 0) {
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      auto& ts = stats_.tenants[tenant];
      ++ts.submitted;
      ++ts.coalesced;
      ++stats_.coalesced_submits;
      tenant_first_.emplace(tenant, Clock::now());
    }
    observers_.on_coalesced(id, tenant, leader_id);
    return Ticket(std::move(state));
  }

  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.tenants[tenant].submitted;
    stats_.queue_high_water = std::max(stats_.queue_high_water, depth);
    tenant_first_.emplace(tenant, Clock::now());
  }
  observers_.on_admitted(id, tenant, depth);
  work_cv_.notify_one();
  return Ticket(std::move(state));
}

WindowObservation SpecializationServer::observe_window(
    const std::string& tenant, std::shared_ptr<const ir::Module> module,
    std::shared_ptr<const vm::Profile> window, int priority,
    double deadline_ms) {
  WindowObservation obs;
  if (!policy_) return obs;  // adaptive mode off
  const std::string stream = stream_key(tenant, *module);
  obs.decision = policy_->observe(stream, *module, *window);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.windows_observed;
    if (obs.decision.change) ++stats_.phase_changes;
    if (obs.decision.action == adaptive::DriftAction::Keep)
      ++stats_.drift_keeps;
  }
  if (obs.decision.change) {
    observers_.on_phase_change(stream, *obs.decision.change);
  }
  if (obs.decision.action == adaptive::DriftAction::Respecialize) {
    // Re-enter through the normal admission path: the drift request queues,
    // coalesces and expires like client traffic. The stale slots leave only
    // the stream's installed set (replaced when the request completes); the
    // bitstream cache is every tenant's database and keeps their bitstreams,
    // so a phase that returns is served from cache hits.
    SpecializationRequest request;
    request.tenant = tenant;
    request.module = std::move(module);
    request.profile = std::move(window);
    request.priority = priority;
    request.deadline_ms = deadline_ms;
    request.trigger = Trigger::Drift;
    Ticket ticket = submit(std::move(request));
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.drift_respecializations;
    }
    observers_.on_drift(stream, obs.decision, ticket.id());
    obs.ticket = std::move(ticket);
  } else if (obs.decision.action == adaptive::DriftAction::Keep) {
    observers_.on_drift(stream, obs.decision, 0);
  }
  return obs;
}

void SpecializationServer::enqueue_locked(Session session) {
  auto& queue = pending_[session.request.tenant];
  // Priority orders within the tenant only: insert before the first
  // strictly-lower-priority request, keeping FIFO among equals.
  const int priority = session.request.priority;
  auto pos = std::find_if(queue.begin(), queue.end(),
                          [priority](const Session& s) {
                            return s.request.priority < priority;
                          });
  queue.insert(pos, std::move(session));
  ++pending_count_;
}

void SpecializationServer::sweep_dead_pending_locked(
    std::vector<Session>& dead) {
  for (auto it = pending_.begin(); it != pending_.end();) {
    auto& queue = it->second;
    for (auto sit = queue.begin(); sit != queue.end();) {
      if (sit->ticket->cancel.token().cancelled()) {
        dead.push_back(std::move(*sit));
        sit = queue.erase(sit);
        --pending_count_;
      } else {
        ++sit;
      }
    }
    it = queue.empty() ? pending_.erase(it) : std::next(it);
  }
}

std::optional<SpecializationServer::Session>
SpecializationServer::pop_next_locked(std::vector<Session>& dead) {
  // Round-robin across tenants with pending work: resume strictly after the
  // last-served tenant, wrapping. Empty per-tenant queues are erased on pop,
  // so every map entry is live. Dead requests at the head of a tenant's
  // queue are skipped into `dead` without consuming the tenant's turn.
  while (pending_count_ > 0) {
    auto it = pending_.upper_bound(rr_cursor_);
    if (it == pending_.end()) it = pending_.begin();
    const std::string tenant = it->first;
    std::optional<Session> live;
    while (!it->second.empty()) {
      Session session = std::move(it->second.front());
      it->second.pop_front();
      --pending_count_;
      if (session.ticket->cancel.token().cancelled()) {
        dead.push_back(std::move(session));
      } else {
        live = std::move(session);
        break;
      }
    }
    if (it->second.empty()) pending_.erase(it);
    rr_cursor_ = tenant;
    if (live) return live;
  }
  return std::nullopt;
}

void SpecializationServer::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stopping_ || pending_count_ > 0; });
    if (stopping_) return;
    std::vector<Session> dead;
    std::optional<Session> session = pop_next_locked(dead);
    // The coordinator counts as running while it settles dead sessions too,
    // so drain cannot observe an idle instant before a dead leader's
    // follower has been promoted back into the queue.
    ++running_;
    lock.unlock();

    for (Session& d : dead) finish_unstarted(d);
    if (session) run_session(*session);

    lock.lock();
    --running_;
    if (pending_count_ == 0 && running_ == 0) idle_cv_.notify_all();
    // More work may have arrived (e.g. a promoted follower) while we ran.
    work_cv_.notify_all();
  }
}

void SpecializationServer::run_session(Session& session) {
  const auto& ticket = session.ticket;
  const auto start = Clock::now();
  {
    std::lock_guard<std::mutex> lock(ticket->mu);
    ticket->started_at = start;
    ticket->outcome.state = RequestState::Running;
    ticket->outcome.queue_ms = ms_between(ticket->submitted_at, start);
  }
  observers_.on_started(session.id, session.request.tenant);

  const support::CancellationToken token = ticket->cancel.token();
  SessionPipelineObserver progress;

  // A request cancelled or expired after it was popped but before the
  // pipeline starts resolves without ever entering it (the scheduler
  // already skips requests that were dead while still queued).
  if (token.cancelled()) {
    finish_unstarted(session);
    return;
  }

  jit::SpecializerConfig cfg = config_.specializer;
  cfg.cancel = token;

  // Anytime selection: turn what is left of the request's deadline after its
  // queue wait into the ISEGEN wall-clock budget. Only a fraction
  // (kIsegenHeadroom) is granted, and an explicit configured budget is only
  // ever tightened, never extended. A request that arrives with (nearly) no
  // headroom gets a floor that still admits the first move batch; the
  // deadline token itself remains the backstop at every stage boundary.
  if (cfg.selector == jit::SpecializerConfig::Selector::Isegen &&
      session.request.deadline_ms > 0.0) {
    const double queue_ms = ms_between(ticket->submitted_at, start);
    const double headroom =
        std::max(0.0, session.request.deadline_ms - queue_ms);
    const double slice = std::max(0.01, headroom * kIsegenHeadroom);
    if (cfg.isegen.time_budget_ms <= 0.0 ||
        slice < cfg.isegen.time_budget_ms) {
      cfg.isegen.time_budget_ms = slice;
    }
  }

  RequestState state = RequestState::Done;
  std::string reason;
  std::optional<jit::SpecializationResult> result;
  pipeline_runs_.fetch_add(1, std::memory_order_relaxed);
  try {
    // The session coordinator searches on its own thread, then submits CAD
    // to the server-wide pool and helps run it while it waits.
    jit::SpecializationPipeline pipeline(cfg, &cache_, &estimates_, &pool_);
    pipeline.add_observer(&progress);
    if (config_.pipeline_observer) {
      pipeline.add_observer(config_.pipeline_observer);
    }
    result = pipeline.run(*session.request.module, *session.request.profile);
  } catch (const support::CancelledError& e) {
    state = e.reason() == support::CancelReason::DeadlineExpired
                ? RequestState::Expired
                : RequestState::Cancelled;
    reason = e.what();
  } catch (const std::exception& e) {
    state = RequestState::Failed;
    reason = e.what();
  }

  finish_session(session, state, std::move(reason), std::move(result),
                 progress.progress());
#if defined(__GLIBC__)
  // glibc keeps what a thread frees in that thread's malloc arena, and which
  // coordinator takes a request is a race. Return the heap a session that
  // implemented a candidate freed, so the footprint does not depend on the
  // schedule. Other sessions are too short to pay for a trim of a big heap.
  if (progress.progress().implemented > 0) ::malloc_trim(0);
#endif
}

void SpecializationServer::finish_unstarted(Session& session) {
  const bool expired = session.ticket->cancel.token().reason() ==
                       support::CancelReason::DeadlineExpired;
  finish_session(session,
                 expired ? RequestState::Expired : RequestState::Cancelled,
                 expired ? "deadline expired while queued"
                         : "cancelled while queued",
                 std::nullopt, RequestProgress{});
}

void SpecializationServer::finish_session(
    Session& session, RequestState state, std::string reason,
    std::optional<jit::SpecializationResult> result,
    const RequestProgress& progress) {
  // A completed specialization (client- or drift-triggered) updates the
  // drift policy's installed set for its stream — strictly before the
  // ticket resolves, so a client that wait()s and immediately streams the
  // next window observes its own installation.
  if (policy_ && state == RequestState::Done && result) {
    policy_->install(
        stream_key(session.request.tenant, *session.request.module), *result);
  }
  resolve(session.ticket, state, std::move(reason), std::move(result),
          progress);

  // Settle the cohort. Collection and promotion happen under mu_, so a
  // concurrent submit either registers its follower before this point (and
  // is settled here) or finds no entry and leads a fresh run.
  std::deque<Session> resolve_now;
  std::optional<std::uint64_t> promoted_id;
  std::string promoted_tenant;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = inflight_.find(session.signature);
    if (it != inflight_.end() && it->second.leader_id == session.id) {
      InFlight& entry = it->second;
      if (state == RequestState::Done) {
        resolve_now = std::move(entry.followers);
        inflight_.erase(it);
      } else {
        // The leader died without a result: promote the oldest follower
        // whose token has not fired into a fresh run at its own priority.
        // Followers behind the promoted one stay attached to it; the dead
        // prefix resolves below.
        while (!entry.followers.empty() && !promoted_id) {
          Session follower = std::move(entry.followers.front());
          entry.followers.pop_front();
          if (follower.ticket->cancel.token().cancelled()) {
            resolve_now.push_back(std::move(follower));
          } else {
            promoted_id = follower.id;
            promoted_tenant = follower.request.tenant;
            entry.leader_id = follower.id;
            {
              std::lock_guard<std::mutex> tlock(follower.ticket->mu);
              follower.ticket->outcome.coalesced = false;
              follower.ticket->outcome.leader_id = 0;
            }
            enqueue_locked(std::move(follower));
          }
        }
        if (!promoted_id) {
          inflight_.erase(it);
        } else {
          // Surviving followers now ride the promoted run.
          for (Session& follower : entry.followers) {
            std::lock_guard<std::mutex> tlock(follower.ticket->mu);
            follower.ticket->outcome.leader_id = *promoted_id;
          }
        }
      }
    }
  }

  if (promoted_id) {
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.promotions;
    }
    observers_.on_promoted(*promoted_id, promoted_tenant, session.id);
    work_cv_.notify_one();
  }

  // Terminal outcomes are immutable, so the leader's result/progress can be
  // read without its lock; a Done follower gets a copy of the result.
  const RequestOutcome& lead = session.ticket->outcome;
  for (Session& follower : resolve_now) {
    const support::CancelReason r = follower.ticket->cancel.token().reason();
    if (r == support::CancelReason::None && state == RequestState::Done) {
      // A coalesced follower may belong to a different tenant — its stream
      // gets the same installed set as the leader's (before its ticket
      // resolves, same ordering contract as the leader's install).
      if (policy_ && lead.result) {
        policy_->install(
            stream_key(follower.request.tenant, *follower.request.module),
            *lead.result);
      }
      resolve(follower.ticket, RequestState::Done, std::string(), lead.result,
              lead.progress);
    } else if (r == support::CancelReason::DeadlineExpired) {
      resolve(follower.ticket, RequestState::Expired,
              "deadline expired while coalesced", std::nullopt,
              RequestProgress{});
    } else {
      resolve(follower.ticket, RequestState::Cancelled,
              "cancelled while coalesced", std::nullopt, RequestProgress{});
    }
  }
}

void SpecializationServer::resolve(
    const std::shared_ptr<detail::TicketState>& ticket, RequestState state,
    std::string reason, std::optional<jit::SpecializationResult> result,
    const RequestProgress& progress) {
  const auto now = Clock::now();
  {
    std::lock_guard<std::mutex> lock(ticket->mu);
    auto& out = ticket->outcome;
    out.state = state;
    out.reason = std::move(reason);
    out.result = std::move(result);
    out.progress = progress;
    // Followers (and dead-queued requests) never start a session; their
    // latency is pure wait, not a garbage span from the epoch.
    out.run_ms = ticket->started_at == Clock::time_point{}
                     ? 0.0
                     : ms_between(ticket->started_at, now);
    out.total_ms = ms_between(ticket->submitted_at, now);
    ticket->terminal = true;
  }
  ticket->cv.notify_all();

  const RequestOutcome& out = ticket->outcome;  // immutable once terminal
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    auto& ts = stats_.tenants[out.tenant];
    if (out.coalesced && state == RequestState::Done)
      ++stats_.coalesced_completed;
    switch (state) {
      case RequestState::Done: ++ts.completed; break;
      case RequestState::Failed: ++ts.failed; break;
      case RequestState::Cancelled:
        ++ts.cancelled;
        ++stats_.cancellations;
        break;
      case RequestState::Expired:
        ++ts.expired;
        ++stats_.expiries;
        break;
      default: break;
    }
    // A Done follower carries a *copy* of its leader's progress; only the
    // run that actually executed the refinement accumulates here.
    if (progress.isegen_ran && !out.coalesced) {
      ++stats_.isegen_runs;
      stats_.isegen_iterations += progress.isegen_iterations;
      stats_.isegen_accepted += progress.isegen_accepted;
      stats_.isegen_saving_delta += progress.isegen_saving_delta;
    }
    tenant_latency_[out.tenant].add(out.total_ms);
  }
  observers_.on_finished(out);
}

void SpecializationServer::drain() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    draining_ = true;
    work_cv_.notify_all();
    idle_cv_.wait(lock, [&] {
      return pending_count_ == 0 && running_ == 0 && settling_ == 0;
    });
  }
  std::size_t synced = 0;
  bool compacted = false;
  if (journal_) {
    synced = journal_->sync();
    compacted = journal_->maybe_compact(cache_);
  }
  observers_.on_drained(synced, compacted);
}

ServerStats SpecializationServer::stats() const {
  ServerStats s;
  const auto now = Clock::now();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    s = stats_;
    for (auto& [tenant, ts] : s.tenants) {
      const auto it = tenant_latency_.find(tenant);
      if (it != tenant_latency_.end() && it->second.count() > 0) {
        // One sort per tenant serves every percentile (percentile() would
        // copy-and-sort the full sample vector per call).
        const std::vector<double> sorted = it->second.sorted();
        ts.p50_ms = support::percentile_of_sorted(sorted, 50.0);
        ts.p95_ms = support::percentile_of_sorted(sorted, 95.0);
        ts.p99_ms = support::percentile_of_sorted(sorted, 99.0);
        ts.mean_ms = support::mean_of(sorted);
      }
      // Throughput over the window since the tenant's first submission —
      // total server uptime would dilute tenants that arrive late.
      const auto first = tenant_first_.find(tenant);
      const double window_s =
          first != tenant_first_.end()
              ? std::chrono::duration<double>(now - first->second).count()
              : 0.0;
      ts.throughput_rps =
          window_s > 0.0 ? static_cast<double>(ts.completed) / window_s : 0.0;
    }
  }
  s.uptime_s = std::chrono::duration<double>(now - started_at_).count();
  s.pipeline_runs = pipeline_runs_.load(std::memory_order_relaxed);
  s.executor = pool_.stats();
  s.cache_hits = cache_.hits();
  s.cache_misses = cache_.misses();
  s.cache_entries = cache_.entries();
  s.cache_evictions = cache_.evictions();
  s.estimate_hits = estimates_.hits();
  s.estimate_misses = estimates_.misses();
  return s;
}

}  // namespace jitise::server
