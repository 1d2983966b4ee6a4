// drift_vm — one tenant runs the phase_shift rotor (adpcm -> fft -> sor
// behind a `phase_main` dispatcher, seeded rotation order, period 4, +-1/16
// jitter on each kernel's train size) on one vm::Machine with per-run
// profiling windows. After every epoch the client streams the window to an
// adaptive server's observe_window and waits for any drift ticket. One
// request is one epoch. The interpreter does most of the work; every
// confirmed phase change evicts and re-implements (the evict-and-refill
// path of the bitstream cache).
#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <memory>
#include <stdexcept>

#include "harness.hpp"
#include "ir/builder.hpp"
#include "ir/link.hpp"

namespace perfbench {
namespace {

/// Epochs per second on the reference host; the run measures the whole
/// rotation cycles closest to `seconds * kEpochsPerSecond` epochs, fixed per
/// (seed, seconds). Whole cycles give every latency class (each kernel's
/// plain and re-specializing epochs) an exact share of the samples, so the
/// reported percentiles stay inside one class.
constexpr double kEpochsPerSecond = 8.5;
constexpr std::size_t kPeriod = 4;
constexpr const char* kKernels[] = {"adpcm", "fft", "sor"};
constexpr std::size_t kKernelCount = 3;
constexpr std::size_t kCycle = kPeriod * kKernelCount;

struct Epoch {
  std::size_t kernel = 0;
  std::int64_t n = 0;
};

/// Fuses the kernel apps into one module with a `phase_main(sel, n)`
/// dispatcher calling the selected app's main in train mode; returns each
/// kernel's train size.
std::shared_ptr<const ir::Module> build_rotor(
    std::array<std::int64_t, kKernelCount>& train_n) {
  auto merged = std::make_shared<ir::Module>();
  merged->name = "phase_rotor";
  std::array<ir::FuncId, kKernelCount> mains{};
  for (std::size_t k = 0; k < kKernelCount; ++k) {
    const apps::App app = apps::build_app(kKernels[k]);
    ir::merge_module(*merged, app.module, std::string(kKernels[k]) + ".");
    const std::int64_t fn =
        merged->find_function(std::string(kKernels[k]) + ".main");
    if (fn < 0) throw std::logic_error("merged app lost its main");
    mains[k] = static_cast<ir::FuncId>(fn);
    train_n[k] = app.datasets.at(0).args.at(0).i;
  }
  using namespace jitise::ir;
  FunctionBuilder fb(*merged, "phase_main", Type::I32, {Type::I32, Type::I32});
  BlockId cur = fb.entry();
  for (std::size_t k = 0; k < kKernelCount; ++k) {
    fb.set_insert(cur);
    const auto call = [&] {
      return fb.call(mains[k], Type::I32,
                     {fb.param(1), fb.const_int(Type::I32, 0)});
    };
    if (k + 1 == kKernelCount) {
      fb.ret(call());
      break;
    }
    const ValueId hit =
        fb.icmp(ICmpPred::Eq, fb.param(0),
                fb.const_int(Type::I32, static_cast<std::int64_t>(k)));
    const BlockId call_b = fb.new_block(std::string("call_") + kKernels[k]);
    const BlockId else_b = fb.new_block(std::string("next_") + kKernels[k]);
    fb.condbr(hit, call_b, else_b);
    fb.set_insert(call_b);
    fb.ret(call());
    cur = else_b;
  }
  fb.finish();
  return merged;
}

/// The seeded rotation: kPeriod epochs per phase, sor first (so setup's
/// initial specialization costs the same for every seed) and then the other
/// two kernels in seeded order, with a jitter of up to +-1/16 on each
/// epoch's train size.
std::vector<Epoch> build_schedule(std::uint64_t seed, std::size_t epochs,
                                  const std::array<std::int64_t, kKernelCount>&
                                      train_n) {
  support::Xoshiro256 rng(support::SplitMix64(seed).next());
  std::array<std::size_t, kKernelCount> order{2, 0, 1};
  if (rng.below(2) == 1) std::swap(order[1], order[2]);
  std::vector<Epoch> plan(epochs);
  for (std::size_t e = 0; e < epochs; ++e) {
    const std::size_t k = order[(e / kPeriod) % kKernelCount];
    const std::int64_t base = train_n[k];
    const std::int64_t jitter =
        static_cast<std::int64_t>(
            rng.below(static_cast<std::uint64_t>(base / 8 + 1))) -
        base / 16;
    plan[e] = Epoch{k, std::max<std::int64_t>(1, base + jitter)};
  }
  return plan;
}

/// Return values of plain runs of each (kernel, n): the app built on its
/// own and run on a fresh machine.
std::map<std::pair<std::size_t, std::int64_t>, std::int64_t> plain_runs(
    const std::vector<Epoch>& plan) {
  std::vector<std::pair<std::size_t, std::int64_t>> keys;
  for (const Epoch& e : plan) keys.emplace_back(e.kernel, e.n);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::vector<apps::App> kernels;
  for (const char* name : kKernels) kernels.push_back(apps::build_app(name));
  std::vector<std::int64_t> values(keys.size());
  parallel_for(keys.size(), 4, [&](std::size_t i) {
    const auto [k, n] = keys[i];
    vm::Machine machine(kernels[k].module);
    const std::array<vm::Slot, 2> args{vm::Slot::of_int(n),
                                       vm::Slot::of_int(0)};
    values[i] = machine.run(kernels[k].entry, args).ret.i;
  });
  std::map<std::pair<std::size_t, std::int64_t>, std::int64_t> out;
  for (std::size_t i = 0; i < keys.size(); ++i) out[keys[i]] = values[i];
  return out;
}

server::ServerConfig drift_config(std::uint64_t seed) {
  // The phase_shift drift leg's configuration.
  server::ServerConfig cfg;
  cfg.workers = 2;
  cfg.specializer.jobs = 2;
  cfg.adaptive = true;
  cfg.respec.detector.seed = seed;
  cfg.respec.detector.hysteresis_windows = 1;
  cfg.respec.retention_threshold = 0.6;
  cfg.respec.respec_cost_cycles = 150e3;
  cfg.respec.horizon_windows = 8;
  return cfg;
}

}  // namespace

Report run_drift_vm(const Options& opt) {
  Report rep;
  SpanLog spans;
  LayerProbe probe(&spans);
  const std::string tenant = "rotor";

  const std::size_t cycles =
      opt.count != 0 ? opt.count
                     : std::max<long>(1, std::lround(opt.seconds *
                                                     kEpochsPerSecond /
                                                     kCycle));
  const std::size_t epochs = cycles * kCycle;
  std::vector<double> setup_s;
  std::shared_ptr<const ir::Module> rotor;
  std::vector<Epoch> plan;
  std::unique_ptr<server::SpecializationServer> srv;
  std::unique_ptr<vm::Machine> machine;
  std::vector<std::int64_t> returns;  // epoch 0 .. epochs
  for (unsigned s = 0; s < opt.setups; ++s) {
    srv.reset();
    machine.reset();
    returns.clear();
    const auto t0 = Clock::now();
    std::array<std::int64_t, kKernelCount> train_n{};
    rotor = build_rotor(train_n);
    plan = build_schedule(opt.seed, epochs + 1, train_n);
    server::ServerConfig cfg = drift_config(opt.seed);
    if (opt.trace) cfg.pipeline_observer = &probe;
    record_server_shape(rep, cfg);
    srv = std::make_unique<server::SpecializationServer>(cfg);
    if (opt.trace) srv->add_observer(&probe);
    machine = std::make_unique<vm::Machine>(*rotor);
    vm::WindowConfig wc;
    wc.per_run = true;
    wc.ring_capacity = 2;
    machine->enable_windowing(wc);
    // Epoch 0 is the tenant's initial specialization.
    const std::array<vm::Slot, 2> args{
        vm::Slot::of_int(static_cast<std::int64_t>(plan[0].kernel)),
        vm::Slot::of_int(plan[0].n)};
    returns.push_back(machine->run("phase_main", args).ret.i);
    auto window =
        std::make_shared<const vm::Profile>(machine->windows().back().delta);
    (void)srv->observe_window(tenant, rotor, window);
    server::SpecializationRequest req;
    req.tenant = tenant;
    req.module = rotor;
    req.profile = window;
    const server::Ticket initial = srv->submit(std::move(req));
    const server::RequestOutcome& out = initial.wait();
    if (out.state != server::RequestState::Done || !out.result) {
      throw std::runtime_error(std::string("initial specialization ") +
                               server::state_name(out.state) + ": " +
                               out.reason);
    }
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  std::vector<std::uint64_t> schedule;
  for (const Epoch& e : plan) {
    schedule.push_back(e.kernel);
    schedule.push_back(static_cast<std::uint64_t>(e.n));
  }
  rep.schedule_digest = digest_of(schedule);
  rep.config["client_threads"] = "1";
  rep.config["requests"] = std::to_string(epochs);
  rep.config["cycles"] = std::to_string(cycles);

  const server::ServerStats before = srv->stats();
  probe.set_recording(true);
  Samples latency, observe_us, respec_ms;
  ClientLayers client;  // drift tickets (submitted inside observe_window)
  std::array<Samples, kKernelCount> per_kernel;
  VmTally vm;
  std::uint64_t found = 0, selected = 0;
  std::vector<std::uint64_t> digests;
  const auto start = Clock::now();
  for (std::size_t e = 1; e <= epochs; ++e) {
    const Epoch& ep = plan[e];
    const std::array<vm::Slot, 2> args{
        vm::Slot::of_int(static_cast<std::int64_t>(ep.kernel)),
        vm::Slot::of_int(ep.n)};
    const auto t0 = Clock::now();
    std::uint64_t span = 0;
    if (opt.trace) {
      span = spans.open("request", t0, e);
      probe.bind(tenant, e, span);
    }
    const vm::RunResult run = machine->run("phase_main", args);
    const auto t1 = Clock::now();
    auto window =
        std::make_shared<const vm::Profile>(machine->windows().back().delta);
    const auto t2 = Clock::now();
    const server::WindowObservation obs =
        srv->observe_window(tenant, rotor, std::move(window));
    const auto t3 = Clock::now();
    if (obs.ticket) {
      const server::RequestOutcome& out = obs.ticket->wait();
      if (opt.trace) {
        client.queue_ms.add(out.queue_ms);
        client.run_ms.add(out.run_ms);
      }
      if (out.state == server::RequestState::Done && out.result) {
        found += out.result->candidates_found;
        selected += out.result->candidates_selected;
        digests.push_back(fingerprint(*out.result).digest());
      } else {
        rep.fail(check_outcome(out, {}));
      }
    }
    const auto t4 = Clock::now();
    ++rep.attempted;
    returns.push_back(run.ret.i);
    vm.add(ms_between(t0, t1), run.steps);
    latency.add(ms_between(t0, t4));
    per_kernel[ep.kernel].add(ms_between(t0, t4));
    if (opt.trace) {
      spans.close(span, t4);
      spans.add("vm.run", t0, t1, e, span);
      spans.add("adaptive.observe_window", t2, t3, e, span);
      observe_us.add(ms_between(t2, t3) * 1e3);
      if (obs.ticket) {
        spans.add("adaptive.respec", t3, t4, e, span);
        respec_ms.add(ms_between(t3, t4));
      }
    }
  }
  const double wall_s = ms_between(start, Clock::now()) / 1e3;
  rep.peak_rss_mb = peak_rss_mb();
  probe.set_recording(false);
  const server::ServerStats after = srv->stats();
  srv->drain();

  // Correctness: every epoch's return value equals a plain run of its kernel.
  const auto reference = plain_runs(plan);
  for (std::size_t e = 0; e < returns.size(); ++e) {
    digests.push_back(static_cast<std::uint64_t>(returns[e]));
    const std::int64_t want = reference.at({plan[e].kernel, plan[e].n});
    if (returns[e] != want) {
      rep.fail("epoch " + std::to_string(e) + " (" + kKernels[plan[e].kernel] +
               ") returned " + std::to_string(returns[e]) + ", plain run " +
               std::to_string(want));
    }
  }
  rep.result_digest = digest_of(digests);

  std::vector<double> kernel_medians;
  for (std::size_t k = 0; k < kKernelCount; ++k) {
    kernel_medians.push_back(per_kernel[k].median());
    rep.per_app_ms[kKernels[k]] = per_kernel[k].median();
  }
  add_request_metrics(rep, setup_s, latency, kernel_medians, wall_s,
                      vm.minstr_per_s());
  rep.exact["jit.candidates_found"] = found;
  rep.exact["jit.candidates_selected"] = selected;
  rep.exact["vm.instructions"] = vm.instructions;
  rep.exact["adaptive.phase_changes"] = after.phase_changes - before.phase_changes;
  rep.exact["adaptive.respecs"] =
      after.drift_respecializations - before.drift_respecializations;
  rep.exact["adaptive.keeps"] = after.drift_keeps - before.drift_keeps;
  if (opt.trace) {
    rep.layers["adaptive.observe_us_p50"] = observe_us.median();
    rep.layers["adaptive.respec_ms_p50"] = respec_ms.median();
    finish_trace(rep, opt, probe, spans, before, after, client, vm, wall_s);
  }
  return rep;
}

}  // namespace perfbench
