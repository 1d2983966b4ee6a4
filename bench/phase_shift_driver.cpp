#include "phase_shift_driver.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "adaptive/policy.hpp"
#include "apps/app.hpp"
#include "estimation/estimator.hpp"
#include "hwlib/component.hpp"
#include "ir/builder.hpp"
#include "ir/link.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "vm/interpreter.hpp"

namespace jitise::bench {
namespace {

/// The rotating workload's kernel set (classic embedded/scientific apps with
/// disjoint hot loops, so each rotation is a genuine phase change).
constexpr const char* kKernelNames[] = {"adpcm", "fft", "sor"};
constexpr std::size_t kKernelCount = 3;

struct KernelInfo {
  std::string name;
  ir::FuncId main = 0;       // entry inside the merged module
  std::int64_t train_n = 0;  // the app's train data-set size
};

struct EpochPlan {
  std::size_t kernel = 0;
  std::int64_t n = 0;
};

struct EpochRow {
  double base = 0.0;   // window cpu_cycles
  double saved = 0.0;  // installed savings priced under the window
  double cost = 0.0;
  double net = 0.0;
  std::string phase = "-";  // drift leg only
  std::string event = "-";
};

struct LegResult {
  std::vector<EpochRow> rows;
  PolicyTotals totals;
  server::ServerStats stats;
  /// Installed slots the drift leg's Respecialize decisions replaced.
  std::uint64_t stale_slots = 0;
};

enum class Policy { Never, Always, Drift };

/// Fuses the kernel apps into one module and adds a `phase_main(sel, n)`
/// dispatcher that forwards to the selected app's main (mode 0 = train).
std::shared_ptr<const ir::Module> build_rotor_module(
    std::vector<KernelInfo>& kernels) {
  auto merged = std::make_shared<ir::Module>();
  merged->name = "phase_rotor";
  for (const char* name : kKernelNames) {
    apps::App app = apps::build_app(name);
    ir::merge_module(*merged, app.module, std::string(name) + ".");
    const std::int64_t main_fn =
        merged->find_function(std::string(name) + ".main");
    if (main_fn < 0) throw std::logic_error("merged app lost its main");
    kernels.push_back(KernelInfo{name, static_cast<ir::FuncId>(main_fn),
                                 app.datasets.at(0).args.at(0).i});
  }

  using namespace ir;
  FunctionBuilder fb(*merged, "phase_main", Type::I32,
                     {Type::I32, Type::I32});
  BlockId cur = fb.entry();
  for (std::size_t k = 0; k < kernels.size(); ++k) {
    fb.set_insert(cur);
    if (k + 1 == kernels.size()) {
      fb.ret(fb.call(kernels[k].main, Type::I32,
                     {fb.param(1), fb.const_int(Type::I32, 0)}));
      break;
    }
    const ValueId hit = fb.icmp(
        ICmpPred::Eq, fb.param(0),
        fb.const_int(Type::I32, static_cast<std::int64_t>(k)));
    const BlockId call_b = fb.new_block("call_" + kernels[k].name);
    const BlockId else_b = fb.new_block("next_" + kernels[k].name);
    fb.condbr(hit, call_b, else_b);
    fb.set_insert(call_b);
    fb.ret(fb.call(kernels[k].main, Type::I32,
                   {fb.param(1), fb.const_int(Type::I32, 0)}));
    cur = else_b;
  }
  fb.finish();
  return merged;
}

/// Seeded schedule shared verbatim by all three legs: a shuffled rotation
/// order, `period` epochs per phase, and a small per-epoch jitter on each
/// kernel's train size (same kernel, slightly different data — phases must
/// survive realistic run-to-run noise).
std::vector<EpochPlan> build_schedule(const PhaseShiftOptions& opt,
                                      const std::vector<KernelInfo>& kernels) {
  support::Xoshiro256 rng(opt.seed);
  std::vector<std::size_t> order(kernels.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.below(i)]);

  const std::size_t period = opt.period == 0 ? 1 : opt.period;
  std::vector<EpochPlan> plan(opt.epochs);
  for (std::size_t e = 0; e < opt.epochs; ++e) {
    const std::size_t k = order[(e / period) % order.size()];
    const std::int64_t base = kernels[k].train_n;
    const std::int64_t jitter =
        static_cast<std::int64_t>(rng.below(
            static_cast<std::uint64_t>(base / 8 + 1))) -
        base / 16;
    plan[e] = EpochPlan{k, std::max<std::int64_t>(1, base + jitter)};
  }
  return plan;
}

LegResult run_leg(Policy policy, const PhaseShiftOptions& opt,
                  const std::shared_ptr<const ir::Module>& module,
                  const std::vector<EpochPlan>& plan,
                  const jit::SpecializerConfig& pricing,
                  hwlib::CircuitDb& db, estimation::EstimateCache& estimates,
                  server::ServerObserver* trace) {
  server::ServerConfig cfg;
  cfg.workers = opt.workers;
  cfg.specializer.jobs = opt.jobs;
  if (policy == Policy::Drift) {
    cfg.adaptive = true;
    cfg.respec.detector.seed = opt.seed;
    cfg.respec.detector.hysteresis_windows = opt.hysteresis;
    cfg.respec.retention_threshold = opt.retention_threshold;
    cfg.respec.respec_cost_cycles = opt.respec_cost_kcycles * 1000.0;
    cfg.respec.horizon_windows = opt.horizon_windows;
  }
  server::SpecializationServer srv(cfg);
  if (trace != nullptr && policy == Policy::Drift) srv.add_observer(trace);

  vm::Machine machine(*module);
  vm::WindowConfig wc;
  wc.per_run = true;
  wc.ring_capacity = plan.size() + 1;
  machine.enable_windowing(wc);

  const double respec_cost = opt.respec_cost_kcycles * 1000.0;
  std::vector<std::uint64_t> installed;
  const auto install_from = [&installed](const server::RequestOutcome& out) {
    if (out.state != server::RequestState::Done || !out.result) return;
    installed.clear();
    for (const auto& impl : out.result->implemented)
      installed.push_back(impl.signature);
  };

  LegResult leg;
  leg.totals.name = policy == Policy::Never    ? "never"
                    : policy == Policy::Always ? "always"
                                               : "drift";
  for (std::size_t e = 0; e < plan.size(); ++e) {
    const EpochPlan& ep = plan[e];
    const std::array<vm::Slot, 2> args{
        vm::Slot::of_int(static_cast<std::int64_t>(ep.kernel)),
        vm::Slot::of_int(ep.n)};
    machine.run("phase_main", args);
    const vm::Profile& window = machine.windows().back().delta;

    // Price the set installed *before* this epoch under this window: a
    // re-specialization ordered now only pays off from the next epoch.
    EpochRow row;
    row.base = static_cast<double>(window.cpu_cycles);
    row.saved = adaptive::evaluate_window_benefit(*module, window, installed,
                                                  pricing, db, &estimates)
                    .installed_saving;

    auto window_sp = std::make_shared<vm::Profile>(window);
    const auto submit_client = [&] {
      server::SpecializationRequest req;
      req.tenant = "rotor";
      req.module = module;
      req.profile = window_sp;
      install_from(srv.submit(std::move(req)).wait());
    };

    bool respec = false;
    switch (policy) {
      case Policy::Never:
        if (e == 0) {
          submit_client();
          respec = true;
          row.event = "spec";
        }
        break;
      case Policy::Always:
        submit_client();
        respec = true;
        row.event = e == 0 ? "spec" : "respec";
        break;
      case Policy::Drift: {
        const server::WindowObservation obs =
            srv.observe_window("rotor", module, window_sp);
        row.phase = support::strf("%u", obs.decision.phase);
        if (e == 0) {
          submit_client();
          respec = true;
          row.event = "spec";
        } else {
          switch (obs.decision.action) {
            case adaptive::DriftAction::None:
              break;
            case adaptive::DriftAction::Keep:
              row.event = "keep";
              break;
            case adaptive::DriftAction::Respecialize:
              row.event = "respec";
              respec = true;
              leg.stale_slots += obs.decision.stale.size();
              if (obs.ticket) install_from(obs.ticket->wait());
              break;
          }
        }
        break;
      }
    }

    row.cost = respec ? respec_cost : 0.0;
    row.net = row.base - row.saved + row.cost;
    leg.totals.respecs += respec ? 1 : 0;
    leg.totals.base_cycles += row.base;
    leg.totals.saved_cycles += row.saved;
    leg.totals.cost_cycles += row.cost;
    leg.totals.net_cycles += row.net;
    leg.rows.push_back(std::move(row));
  }

  srv.drain();
  leg.stats = srv.stats();
  return leg;
}

}  // namespace

PhaseShiftReport run_phase_shift(const PhaseShiftOptions& opt) {
  std::vector<KernelInfo> kernels;
  const std::shared_ptr<const ir::Module> module = build_rotor_module(kernels);
  const std::vector<EpochPlan> plan = build_schedule(opt, kernels);

  // One pricing memo shared by every leg (pure signature-keyed caches), so
  // repeated pricing of recurring phases is identical and nearly free.
  const jit::SpecializerConfig pricing;
  hwlib::CircuitDb db;
  estimation::EstimateCache estimates;

  server::ServerTraceObserver trace(stderr);
  const LegResult never = run_leg(Policy::Never, opt, module, plan, pricing,
                                  db, estimates, nullptr);
  const LegResult always = run_leg(Policy::Always, opt, module, plan, pricing,
                                   db, estimates, nullptr);
  const LegResult drift = run_leg(Policy::Drift, opt, module, plan, pricing,
                                  db, estimates, opt.trace ? &trace : nullptr);

  PhaseShiftReport report;
  report.never_respec = never.totals;
  report.always_respec = always.totals;
  report.drift = drift.totals;
  report.drift_stats = drift.stats;
  report.rejections = never.stats.admission_rejections +
                      always.stats.admission_rejections +
                      drift.stats.admission_rejections;
  report.drift_beats_never =
      drift.totals.net_cycles < never.totals.net_cycles;
  report.drift_beats_always =
      drift.totals.net_cycles < always.totals.net_cycles;

  std::string text;
  text += "phase_shift: rotating workload under three re-specialization"
          " policies\n";
  text += support::strf(
      "seed=%llu epochs=%zu period=%zu respec-cost=%.0f kcyc"
      " retention>=%.0f%% hysteresis=%u horizon=%llu\n\n",
      static_cast<unsigned long long>(opt.seed), opt.epochs, opt.period,
      opt.respec_cost_kcycles, 100.0 * opt.retention_threshold,
      opt.hysteresis, static_cast<unsigned long long>(opt.horizon_windows));

  support::TextTable timeline(
      {"epoch", "kernel", "n", "base kcyc", "never net", "always net",
       "drift net", "phase", "drift event"});
  for (std::size_t e = 0; e < plan.size(); ++e) {
    timeline.add_row(
        {support::strf("%zu", e), kernels[plan[e].kernel].name,
         support::strf("%lld", static_cast<long long>(plan[e].n)),
         support::strf("%.1f", drift.rows[e].base / 1e3),
         support::strf("%.1f", never.rows[e].net / 1e3),
         support::strf("%.1f", always.rows[e].net / 1e3),
         support::strf("%.1f", drift.rows[e].net / 1e3), drift.rows[e].phase,
         drift.rows[e].event});
  }
  text += timeline.render();
  text += "\n";

  support::TextTable summary({"policy", "respecs", "base Mcyc", "saved Mcyc",
                              "cost Mcyc", "net Mcyc", "vs never"});
  const auto add_policy = [&summary, &never](const PolicyTotals& t) {
    const double vs =
        never.totals.net_cycles > 0.0
            ? 100.0 * (never.totals.net_cycles - t.net_cycles) /
                  never.totals.net_cycles
            : 0.0;
    summary.add_row({t.name, support::strf("%llu",
                                           static_cast<unsigned long long>(
                                               t.respecs)),
                     support::strf("%.2f", t.base_cycles / 1e6),
                     support::strf("%.2f", t.saved_cycles / 1e6),
                     support::strf("%.2f", t.cost_cycles / 1e6),
                     support::strf("%.2f", t.net_cycles / 1e6),
                     support::strf("%+.1f%%", vs)});
  };
  add_policy(never.totals);
  add_policy(always.totals);
  add_policy(drift.totals);
  text += summary.render();
  text += "\n";

  const server::ServerStats& ds = drift.stats;
  text += support::strf(
      "drift loop: %llu windows observed, %llu phase changes, %llu keeps,"
      " %llu stale evictions\n",
      static_cast<unsigned long long>(ds.windows_observed),
      static_cast<unsigned long long>(ds.phase_changes),
      static_cast<unsigned long long>(ds.drift_keeps),
      static_cast<unsigned long long>(drift.stale_slots));
  text += support::strf(
      "drift-triggered re-specializations: %llu\n",
      static_cast<unsigned long long>(ds.drift_respecializations));
  text += support::strf("admission rejections: %llu\n",
                        static_cast<unsigned long long>(report.rejections));
  text += support::strf(
      "verdict: drift %s never-respecialize (net %.2f vs %.2f Mcyc)\n",
      report.drift_beats_never ? "beats" : "does NOT beat",
      drift.totals.net_cycles / 1e6, never.totals.net_cycles / 1e6);
  text += support::strf(
      "verdict: drift %s always-respecialize (net %.2f vs %.2f Mcyc)\n",
      report.drift_beats_always ? "beats" : "does NOT beat",
      drift.totals.net_cycles / 1e6, always.totals.net_cycles / 1e6);
  report.text = std::move(text);
  return report;
}

}  // namespace jitise::bench
