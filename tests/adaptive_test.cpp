// Adaptive re-specialization tests: phase detection (determinism,
// hysteresis, scale invariance, returns to known phases), window-benefit
// pricing, the drift policy's Keep/Respecialize decisions, the server's
// observe_window loop end-to-end (Trigger::Drift through the normal
// admission queue), and byte-identical reproducibility of the phase_shift
// A/B harness. Runs under the CI TSan job.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "adaptive/phase.hpp"
#include "adaptive/policy.hpp"
#include "estimation/estimator.hpp"
#include "hwlib/component.hpp"
#include "ir/builder.hpp"
#include "ir/verifier.hpp"
#include "phase_shift_driver.hpp"
#include "server/server.hpp"
#include "vm/interpreter.hpp"

namespace {

using namespace jitise;

/// A synthetic one-function profile with the given per-block counts.
vm::Profile synth(std::initializer_list<std::uint64_t> counts) {
  vm::Profile p;
  p.block_counts.assign(1, std::vector<std::uint64_t>(counts));
  for (const std::uint64_t c : counts) p.dyn_instructions += c;
  p.cpu_cycles = p.dyn_instructions;
  return p;
}

const vm::Profile kPhaseA = synth({100, 90, 80, 70, 0, 0, 0, 0});
const vm::Profile kPhaseB = synth({0, 0, 0, 0, 100, 90, 80, 70});
const vm::Profile kPhaseC = synth({60, 0, 0, 50, 0, 0, 40, 0});

TEST(PhaseDetector, FirstWindowAnchorsSilently) {
  adaptive::PhaseDetector det;
  EXPECT_FALSE(det.observe(kPhaseA).has_value());
  EXPECT_EQ(det.current_phase(), 0u);
  EXPECT_EQ(det.phase_count(), 1u);
  EXPECT_EQ(det.observations(), 1u);
}

TEST(PhaseDetector, ConfirmsChangeAfterHysteresis) {
  adaptive::PhaseDetectorConfig cfg;
  cfg.hysteresis_windows = 2;
  adaptive::PhaseDetector det(cfg);
  EXPECT_FALSE(det.observe(kPhaseA).has_value());
  EXPECT_FALSE(det.observe(kPhaseA).has_value());
  // First disagreeing window starts the streak but confirms nothing.
  EXPECT_FALSE(det.observe(kPhaseB).has_value());
  EXPECT_EQ(det.current_phase(), 0u);
  // Second consecutive disagreeing window confirms.
  const auto change = det.observe(kPhaseB);
  ASSERT_TRUE(change.has_value());
  EXPECT_EQ(change->from_phase, 0u);
  EXPECT_EQ(change->to_phase, 1u);
  EXPECT_TRUE(change->new_phase);
  EXPECT_EQ(det.current_phase(), 1u);
  EXPECT_EQ(det.phase_count(), 2u);
}

TEST(PhaseDetector, SingleWindowBlipNeverThrashes) {
  adaptive::PhaseDetectorConfig cfg;
  cfg.hysteresis_windows = 2;
  adaptive::PhaseDetector det(cfg);
  const vm::Profile* stream[] = {&kPhaseA, &kPhaseA, &kPhaseB,
                                 &kPhaseA, &kPhaseA, &kPhaseA};
  for (const vm::Profile* w : stream)
    EXPECT_FALSE(det.observe(*w).has_value());
  EXPECT_EQ(det.current_phase(), 0u);
}

TEST(PhaseDetector, ReturnToKnownPhaseIsNotNew) {
  adaptive::PhaseDetectorConfig cfg;
  cfg.hysteresis_windows = 1;
  adaptive::PhaseDetector det(cfg);
  EXPECT_FALSE(det.observe(kPhaseA).has_value());
  const auto to_b = det.observe(kPhaseB);
  ASSERT_TRUE(to_b.has_value());
  EXPECT_TRUE(to_b->new_phase);
  const auto back = det.observe(kPhaseA);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->from_phase, 1u);
  EXPECT_EQ(back->to_phase, 0u);
  EXPECT_FALSE(back->new_phase);
  EXPECT_EQ(det.phase_count(), 2u);  // no duplicate leader for A
}

TEST(PhaseDetector, CosineIsScaleInvariant) {
  adaptive::PhaseDetectorConfig cfg;
  cfg.hysteresis_windows = 1;
  adaptive::PhaseDetector det(cfg);
  EXPECT_FALSE(det.observe(kPhaseA).has_value());
  // Same distribution, 10x the volume: still phase 0.
  vm::Profile scaled = kPhaseA;
  for (auto& f : scaled.block_counts)
    for (auto& c : f) c *= 10;
  scaled.dyn_instructions *= 10;
  scaled.cpu_cycles *= 10;
  EXPECT_FALSE(det.observe(scaled).has_value());
  EXPECT_EQ(det.current_phase(), 0u);
  EXPECT_EQ(det.phase_count(), 1u);
  EXPECT_GT(det.last_similarity(), 0.99);
}

TEST(PhaseDetector, SmallJitterStaysInPhase) {
  adaptive::PhaseDetectorConfig cfg;
  cfg.hysteresis_windows = 1;
  adaptive::PhaseDetector det(cfg);
  EXPECT_FALSE(det.observe(kPhaseA).has_value());
  EXPECT_FALSE(det.observe(synth({104, 87, 82, 69, 0, 0, 0, 0})).has_value());
  EXPECT_EQ(det.phase_count(), 1u);
}

TEST(PhaseDetector, DeterministicForFixedSeed) {
  const vm::Profile* stream[] = {&kPhaseA, &kPhaseA, &kPhaseB, &kPhaseB,
                                 &kPhaseC, &kPhaseC, &kPhaseA, &kPhaseB,
                                 &kPhaseB, &kPhaseA};
  adaptive::PhaseDetectorConfig cfg;
  cfg.seed = 42;
  cfg.hysteresis_windows = 1;
  adaptive::PhaseDetector first(cfg), second(cfg);
  for (const vm::Profile* w : stream) {
    const auto a = first.observe(*w);
    const auto b = second.observe(*w);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a) {
      EXPECT_EQ(a->window_index, b->window_index);
      EXPECT_EQ(a->from_phase, b->from_phase);
      EXPECT_EQ(a->to_phase, b->to_phase);
      EXPECT_EQ(a->new_phase, b->new_phase);
    }
    EXPECT_EQ(first.current_phase(), second.current_phase());
    EXPECT_DOUBLE_EQ(first.last_similarity(), second.last_similarity());
  }
  EXPECT_EQ(first.phase_count(), second.phase_count());
}

TEST(PhaseDetector, MaxPhasesForceJoins) {
  adaptive::PhaseDetectorConfig cfg;
  cfg.hysteresis_windows = 1;
  cfg.max_phases = 1;
  adaptive::PhaseDetector det(cfg);
  EXPECT_FALSE(det.observe(kPhaseA).has_value());
  EXPECT_FALSE(det.observe(kPhaseB).has_value());
  EXPECT_FALSE(det.observe(kPhaseC).has_value());
  EXPECT_EQ(det.phase_count(), 1u);
  EXPECT_EQ(det.current_phase(), 0u);
}

/// A module with two arithmetic-dense hot loops whose hot sets are disjoint,
/// so each loop yields its own candidate set.
ir::Module make_two_kernel_module() {
  using namespace ir;
  Module m;
  m.name = "two_kernels";
  for (const char* name : {"ka", "kb"}) {
    FunctionBuilder fb(m, name, Type::I32, {Type::I32});
    const BlockId body = fb.new_block("body");
    const BlockId exit = fb.new_block("exit");
    fb.br(body);
    fb.set_insert(body);
    const ValueId i = fb.phi(Type::I32);
    const ValueId acc = fb.phi(Type::I32);
    const ValueId inext = fb.binop(Opcode::Add, i, fb.const_int(Type::I32, 1));
    // A deep dependent op chain per kernel (distinct sequences), so each
    // loop body yields a multi-op MISO whose hardware version actually
    // saves cycles over the software chain.
    ValueId work = fb.binop(Opcode::Xor, inext, acc);
    const Opcode ka_ops[] = {Opcode::Add,  Opcode::Shl, Opcode::Xor,
                             Opcode::And,  Opcode::Add, Opcode::Or,
                             Opcode::Sub,  Opcode::Xor, Opcode::Add,
                             Opcode::LShr, Opcode::And, Opcode::Add,
                             Opcode::Xor,  Opcode::Or,  Opcode::Add,
                             Opcode::Sub};
    const Opcode kb_ops[] = {Opcode::Sub, Opcode::Or,   Opcode::Add,
                             Opcode::Xor, Opcode::LShr, Opcode::Add,
                             Opcode::And, Opcode::Add,  Opcode::Shl,
                             Opcode::Sub, Opcode::Xor,  Opcode::Add,
                             Opcode::Or,  Opcode::And,  Opcode::Xor,
                             Opcode::Add};
    const std::span<const Opcode> chain = std::string(name) == "ka"
                                              ? std::span<const Opcode>(ka_ops)
                                              : std::span<const Opcode>(kb_ops);
    int k = 1;
    for (const Opcode op : chain)
      work = fb.binop(op, work, fb.const_int(Type::I32, ++k));
    const ValueId done = fb.icmp(ICmpPred::Sge, inext, fb.param(0));
    fb.condbr(done, exit, body);
    fb.phi_incoming(i, fb.const_int(Type::I32, 0), fb.entry());
    fb.phi_incoming(i, inext, body);
    fb.phi_incoming(acc, fb.const_int(Type::I32, 0), fb.entry());
    fb.phi_incoming(acc, work, body);
    fb.set_insert(exit);
    fb.ret(work);
    fb.finish();
  }
  verify_module_or_throw(m);
  return m;
}

/// Runs `fn` for `n` iterations and returns the closed per-run window.
vm::Profile run_window(vm::Machine& machine, const char* fn, std::int64_t n) {
  const vm::Slot args[] = {vm::Slot::of_int(n)};
  machine.run(fn, args);
  return machine.windows().back().delta;
}

TEST(WindowBenefit, PricesInstalledSetUnderWindow) {
  const ir::Module m = make_two_kernel_module();
  vm::Machine machine(m);
  machine.enable_windowing({});
  const vm::Profile wa = run_window(machine, "ka", 4000);
  const vm::Profile wb = run_window(machine, "kb", 4000);

  const jit::SpecializerConfig cfg;
  hwlib::CircuitDb db;
  estimation::EstimateCache est;

  // Nothing installed: zero retention of a non-zero fresh saving.
  const adaptive::WindowBenefit cold =
      adaptive::evaluate_window_benefit(m, wa, {}, cfg, db, &est);
  EXPECT_GT(cold.fresh_saving, 0.0);
  ASSERT_FALSE(cold.fresh_signatures.empty());
  EXPECT_EQ(cold.installed_saving, 0.0);
  EXPECT_EQ(cold.retention(), 0.0);
  EXPECT_GT(cold.pool, 0u);

  // The fresh selection installed: full retention under the same window.
  const adaptive::WindowBenefit warm = adaptive::evaluate_window_benefit(
      m, wa, cold.fresh_signatures, cfg, db, &est);
  EXPECT_DOUBLE_EQ(warm.installed_saving, warm.fresh_saving);
  EXPECT_DOUBLE_EQ(warm.retention(), 1.0);
  EXPECT_GT(warm.matched, 0u);

  // ka's set under kb's window: the hot sets are disjoint, retention decays.
  const adaptive::WindowBenefit drifted = adaptive::evaluate_window_benefit(
      m, wb, cold.fresh_signatures, cfg, db, &est);
  EXPECT_GT(drifted.fresh_saving, 0.0);
  EXPECT_LT(drifted.retention(), 0.5);
}

jit::SpecializationResult fake_result(
    const std::vector<std::uint64_t>& signatures) {
  jit::SpecializationResult r;
  for (const std::uint64_t s : signatures) {
    jit::ImplementedCandidate impl;
    impl.signature = s;
    r.implemented.push_back(impl);
  }
  return r;
}

TEST(RespecPolicy, RespecializesOnDecayedRetention) {
  const ir::Module m = make_two_kernel_module();
  vm::Machine machine(m);
  machine.enable_windowing({});
  const vm::Profile wa = run_window(machine, "ka", 4000);
  const vm::Profile wb = run_window(machine, "kb", 4000);

  adaptive::RespecializationConfig cfg;
  cfg.detector.hysteresis_windows = 1;
  cfg.retention_threshold = 0.5;
  adaptive::RespecializationPolicy policy(cfg, jit::SpecializerConfig{});

  // First window anchors; no change, nothing to do.
  const adaptive::DriftDecision first = policy.observe("t/m", m, wa);
  EXPECT_EQ(first.action, adaptive::DriftAction::None);

  // Install ka's fresh set, then drift to kb.
  hwlib::CircuitDb db;
  const adaptive::WindowBenefit cold =
      adaptive::evaluate_window_benefit(m, wa, {}, jit::SpecializerConfig{},
                                        db, nullptr);
  policy.install("t/m", fake_result(cold.fresh_signatures));
  EXPECT_EQ(policy.installed("t/m"), cold.fresh_signatures);

  const adaptive::DriftDecision drift = policy.observe("t/m", m, wb);
  EXPECT_EQ(drift.action, adaptive::DriftAction::Respecialize);
  ASSERT_TRUE(drift.change.has_value());
  EXPECT_LT(drift.retention, 0.5);
  // Every installed ka signature is stale under kb's fresh selection.
  EXPECT_EQ(drift.stale, cold.fresh_signatures);
  EXPECT_FALSE(drift.reason.empty());
}

TEST(RespecPolicy, InstalledSetListsEachSignatureOnce) {
  const ir::Module m = make_two_kernel_module();
  vm::Machine machine(m);
  machine.enable_windowing({});
  const vm::Profile wa = run_window(machine, "ka", 4000);
  const vm::Profile wb = run_window(machine, "kb", 4000);

  adaptive::RespecializationConfig cfg;
  cfg.detector.hysteresis_windows = 1;
  cfg.retention_threshold = 0.5;
  adaptive::RespecializationPolicy policy(cfg, jit::SpecializerConfig{});
  (void)policy.observe("t/m", m, wa);

  hwlib::CircuitDb db;
  const adaptive::WindowBenefit cold =
      adaptive::evaluate_window_benefit(m, wa, {}, jit::SpecializerConfig{},
                                        db, nullptr);
  ASSERT_FALSE(cold.fresh_signatures.empty());
  // One datapath selected in two blocks: `implemented` lists it twice.
  std::vector<std::uint64_t> repeated = cold.fresh_signatures;
  repeated.push_back(cold.fresh_signatures.front());
  policy.install("t/m", fake_result(repeated));
  EXPECT_EQ(policy.installed("t/m"), cold.fresh_signatures);

  const adaptive::DriftDecision drift = policy.observe("t/m", m, wb);
  ASSERT_EQ(drift.action, adaptive::DriftAction::Respecialize);
  EXPECT_EQ(drift.stale, cold.fresh_signatures);
  const std::set<std::uint64_t> distinct(drift.stale.begin(),
                                         drift.stale.end());
  EXPECT_EQ(distinct.size(), drift.stale.size());
}

TEST(RespecPolicy, KeepsWhenCostCannotBreakEven) {
  const ir::Module m = make_two_kernel_module();
  vm::Machine machine(m);
  machine.enable_windowing({});
  const vm::Profile wa = run_window(machine, "ka", 4000);
  const vm::Profile wb = run_window(machine, "kb", 4000);

  adaptive::RespecializationConfig cfg;
  cfg.detector.hysteresis_windows = 1;
  // A re-specialization that could never repay itself within the horizon.
  cfg.respec_cost_cycles = 1e15;
  cfg.horizon_windows = 2;
  adaptive::RespecializationPolicy policy(cfg, jit::SpecializerConfig{});
  (void)policy.observe("t/m", m, wa);
  const adaptive::DriftDecision drift = policy.observe("t/m", m, wb);
  EXPECT_EQ(drift.action, adaptive::DriftAction::Keep);
  EXPECT_FALSE(drift.reason.empty());
}

TEST(AdaptiveServer, ObserveWindowIsNoOpWhenDisabled) {
  server::ServerConfig cfg;
  cfg.workers = 1;
  server::SpecializationServer srv(cfg);
  const ir::Module m = make_two_kernel_module();
  vm::Machine machine(m);
  machine.enable_windowing({});
  const auto module = std::make_shared<const ir::Module>(m);
  const auto window =
      std::make_shared<const vm::Profile>(run_window(machine, "ka", 100));
  const server::WindowObservation obs =
      srv.observe_window("t", module, window);
  EXPECT_EQ(obs.decision.action, adaptive::DriftAction::None);
  EXPECT_FALSE(obs.ticket.has_value());
  srv.drain();
  EXPECT_EQ(srv.stats().windows_observed, 0u);
}

/// An adaptive server on the two-kernel module whose detector confirms a
/// change after one window.
server::ServerConfig two_kernel_drift_config() {
  server::ServerConfig cfg;
  cfg.workers = 2;
  cfg.specializer.jobs = 1;
  cfg.adaptive = true;
  cfg.respec.detector.hysteresis_windows = 1;
  cfg.respec.retention_threshold = 0.5;
  return cfg;
}

TEST(AdaptiveServer, DriftRespecializesThroughAdmissionQueue) {
  server::SpecializationServer srv(two_kernel_drift_config());

  const auto module =
      std::make_shared<const ir::Module>(make_two_kernel_module());
  vm::Machine machine(*module);
  machine.enable_windowing({});
  const auto wa =
      std::make_shared<const vm::Profile>(run_window(machine, "ka", 4000));
  const auto wb =
      std::make_shared<const vm::Profile>(run_window(machine, "kb", 4000));

  // Client specialization on the first phase; its result is what the drift
  // loop considers "installed".
  server::SpecializationRequest req;
  req.tenant = "t";
  req.module = module;
  req.profile = wa;
  const server::RequestOutcome& first = srv.submit(std::move(req)).wait();
  ASSERT_EQ(first.state, server::RequestState::Done);
  EXPECT_EQ(first.trigger, server::Trigger::Client);
  ASSERT_TRUE(first.result.has_value());
  ASSERT_FALSE(first.result->implemented.empty());

  // Window 1 anchors the stream's phase; no action.
  const server::WindowObservation anchor = srv.observe_window("t", module, wa);
  EXPECT_EQ(anchor.decision.action, adaptive::DriftAction::None);

  // Window 2 is a different phase: confirmed change, stale installed set,
  // drift re-specialization through the normal queue.
  const server::WindowObservation obs = srv.observe_window("t", module, wb);
  ASSERT_EQ(obs.decision.action, adaptive::DriftAction::Respecialize);
  ASSERT_TRUE(obs.ticket.has_value());
  const server::RequestOutcome& drift = obs.ticket->wait();
  EXPECT_EQ(drift.state, server::RequestState::Done);
  EXPECT_EQ(drift.trigger, server::Trigger::Drift);
  ASSERT_TRUE(drift.result.has_value());

  // Other tenants keep being served while the drift loop runs.
  server::SpecializationRequest other;
  other.tenant = "bystander";
  other.module = module;
  other.profile = wa;
  const server::RequestOutcome& done = srv.submit(std::move(other)).wait();
  EXPECT_EQ(done.state, server::RequestState::Done);
  EXPECT_EQ(done.trigger, server::Trigger::Client);

  srv.drain();
  const server::ServerStats stats = srv.stats();
  EXPECT_EQ(stats.windows_observed, 2u);
  EXPECT_EQ(stats.phase_changes, 1u);
  EXPECT_EQ(stats.drift_respecializations, 1u);
  // The stale slots leave the installed set, not the shared cache.
  EXPECT_FALSE(obs.decision.stale.empty());
  EXPECT_EQ(stats.cache_evictions, 0u);
  EXPECT_EQ(stats.admission_rejections, 0u);
  // The drift request is ordinary traffic for the tenant's accounting.
  EXPECT_EQ(stats.tenants.at("t").submitted, 2u);
}

/// Submits a client request and waits for it to resolve Done.
server::RequestOutcome specialize(
    server::SpecializationServer& srv, const std::string& tenant,
    const std::shared_ptr<const ir::Module>& module,
    const std::shared_ptr<const vm::Profile>& window) {
  server::SpecializationRequest req;
  req.tenant = tenant;
  req.module = module;
  req.profile = window;
  server::RequestOutcome out = srv.submit(std::move(req)).wait();
  EXPECT_EQ(out.state, server::RequestState::Done);
  return out;
}

/// Every candidate of `out` came from the bitstream cache: no CAD ran.
void expect_all_cache_hits(const server::RequestOutcome& out) {
  ASSERT_EQ(out.state, server::RequestState::Done);
  ASSERT_TRUE(out.result.has_value());
  ASSERT_FALSE(out.result->implemented.empty());
  for (const jit::ImplementedCandidate& impl : out.result->implemented)
    EXPECT_TRUE(impl.cache_hit) << impl.name;
  EXPECT_EQ(out.progress.dispatched, 0u);
}

TEST(AdaptiveServer, ReturningPhaseIsACacheHit) {
  server::SpecializationServer srv(two_kernel_drift_config());
  const auto module =
      std::make_shared<const ir::Module>(make_two_kernel_module());
  vm::Machine machine(*module);
  machine.enable_windowing({});
  const auto wa =
      std::make_shared<const vm::Profile>(run_window(machine, "ka", 4000));
  const auto wb =
      std::make_shared<const vm::Profile>(run_window(machine, "kb", 4000));
  // The returning phase: same kernel, different data.
  const auto wa2 =
      std::make_shared<const vm::Profile>(run_window(machine, "ka", 3000));

  specialize(srv, "t", module, wa);
  (void)srv.observe_window("t", module, wa);  // anchors phase ka

  const server::WindowObservation to_b = srv.observe_window("t", module, wb);
  ASSERT_EQ(to_b.decision.action, adaptive::DriftAction::Respecialize);
  ASSERT_TRUE(to_b.ticket.has_value());
  ASSERT_EQ(to_b.ticket->wait().state, server::RequestState::Done);

  const server::WindowObservation back = srv.observe_window("t", module, wa2);
  ASSERT_EQ(back.decision.action, adaptive::DriftAction::Respecialize);
  ASSERT_TRUE(back.ticket.has_value());
  const server::RequestOutcome& returned = back.ticket->wait();
  EXPECT_EQ(returned.trigger, server::Trigger::Drift);
  EXPECT_FALSE(returned.coalesced);
  expect_all_cache_hits(returned);
  srv.drain();
}

TEST(AdaptiveServer, DriftLeavesOtherTenantsHitsIntact) {
  server::SpecializationServer srv(two_kernel_drift_config());
  const auto module =
      std::make_shared<const ir::Module>(make_two_kernel_module());
  vm::Machine machine(*module);
  machine.enable_windowing({});
  const auto wa =
      std::make_shared<const vm::Profile>(run_window(machine, "ka", 4000));
  const auto wb =
      std::make_shared<const vm::Profile>(run_window(machine, "kb", 4000));

  specialize(srv, "x", module, wa);
  // Tenant t installs the same ka set, then drifts to kb: ka's slots go
  // stale for t.
  specialize(srv, "t", module, wa);
  (void)srv.observe_window("t", module, wa);
  const server::WindowObservation obs = srv.observe_window("t", module, wb);
  ASSERT_EQ(obs.decision.action, adaptive::DriftAction::Respecialize);
  ASSERT_FALSE(obs.decision.stale.empty());
  ASSERT_TRUE(obs.ticket.has_value());
  ASSERT_EQ(obs.ticket->wait().state, server::RequestState::Done);

  // x's repeated ka request is still served from the shared cache.
  expect_all_cache_hits(specialize(srv, "x", module, wa));
  srv.drain();
}

/// Records the ids `on_rejected` and `on_drift` report.
class DriftIdRecorder final : public server::ServerObserver {
 public:
  void on_rejected(std::uint64_t id, const std::string&,
                   const std::string&) override {
    std::lock_guard<std::mutex> lock(mu_);
    rejected_.push_back(id);
  }
  void on_drift(const std::string&, const adaptive::DriftDecision&,
                std::uint64_t request_id) override {
    std::lock_guard<std::mutex> lock(mu_);
    drift_.push_back(request_id);
  }
  [[nodiscard]] std::vector<std::uint64_t> rejected() const {
    std::lock_guard<std::mutex> lock(mu_);
    return rejected_;
  }
  [[nodiscard]] std::vector<std::uint64_t> drift() const {
    std::lock_guard<std::mutex> lock(mu_);
    return drift_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::uint64_t> rejected_;
  std::vector<std::uint64_t> drift_;
};

TEST(AdaptiveServer, RejectedDriftRequestKeepsItsId) {
  DriftIdRecorder recorder;  // outlives the server, whose destructor drains
  server::SpecializationServer srv(two_kernel_drift_config());
  srv.add_observer(&recorder);
  const auto module =
      std::make_shared<const ir::Module>(make_two_kernel_module());
  vm::Machine machine(*module);
  machine.enable_windowing({});
  const auto wa =
      std::make_shared<const vm::Profile>(run_window(machine, "ka", 4000));
  const auto wb =
      std::make_shared<const vm::Profile>(run_window(machine, "kb", 4000));

  (void)srv.observe_window("t", module, wa);
  srv.drain();
  const server::WindowObservation obs = srv.observe_window("t", module, wb);
  ASSERT_EQ(obs.decision.action, adaptive::DriftAction::Respecialize);
  ASSERT_TRUE(obs.ticket.has_value());
  const server::RequestOutcome& out = obs.ticket->wait();
  EXPECT_EQ(out.state, server::RequestState::Rejected);
  EXPECT_EQ(out.reason, "server draining");

  const std::vector<std::uint64_t> rejected = recorder.rejected();
  const std::vector<std::uint64_t> drift = recorder.drift();
  ASSERT_EQ(rejected.size(), 1u);
  ASSERT_EQ(drift.size(), 1u);
  EXPECT_NE(rejected.front(), 0u);
  EXPECT_EQ(drift.front(), rejected.front());
  EXPECT_EQ(drift.front(), obs.ticket->id());
}

TEST(PhaseShift, ReportIsSeedReproducibleAndDriftWins) {
  bench::PhaseShiftOptions opt;
  opt.seed = 3;
  opt.epochs = 6;
  opt.period = 2;
  opt.workers = 2;
  opt.jobs = 1;
  const bench::PhaseShiftReport a = bench::run_phase_shift(opt);
  const bench::PhaseShiftReport b = bench::run_phase_shift(opt);
  EXPECT_EQ(a.text, b.text);  // byte-identical for a fixed seed
  EXPECT_GE(a.drift_stats.drift_respecializations, 1u);
  EXPECT_EQ(a.rejections, 0u);
  EXPECT_TRUE(a.drift_beats_never);
  EXPECT_TRUE(a.drift_beats_always);
  EXPECT_LT(a.drift.net_cycles, a.never_respec.net_cycles);
  EXPECT_LT(a.drift.net_cycles, a.always_respec.net_cycles);
}

}  // namespace
