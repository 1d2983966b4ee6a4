// cold_specialize — one client, one request at a time, the server's bitstream
// cache emptied before every request, so each selected candidate runs the
// whole tool flow (C2V..bitgen). CAD does nearly all the work here.
#include <cmath>
#include <memory>
#include <optional>

#include "harness.hpp"

namespace perfbench {
namespace {

/// Seconds one pass over the 15 apps takes on the reference host; the run
/// size is `seconds / kPassSeconds` passes, fixed per (seed, seconds).
constexpr double kPassSeconds = 7.5;
/// The fewest passes a run makes, so that p90 has at least 10 samples
/// beyond it (105 requests) and falls mid-way into the band of the three
/// slowest apps rather than at its lower edge.
constexpr std::size_t kMinPasses = 7;

/// The apps whose specialization implements at least one candidate: the 14
/// classic apps plus game_tree (the other micro kernels select nothing and
/// never reach CAD).
std::vector<std::string> cold_apps() {
  std::vector<std::string> apps =
      apps::app_names(apps::Suite::Classic);
  apps.push_back("game_tree");
  return apps;
}

}  // namespace

Report run_cold_specialize(const Options& opt) {
  Report rep;
  const std::vector<std::string> apps = cold_apps();
  SpanLog spans;
  LayerProbe probe(&spans);

  // Setup: build and train-profile the apps, start the server. Repeated;
  // the median is setup_s and the last repetition is measured.
  VmTally vm;  // the measured (last) setup's profiling runs
  std::vector<double> vm_rate;  // Minstr/s of each repetition
  std::vector<double> setup_s;
  std::vector<Payload> payloads;
  std::unique_ptr<server::SpecializationServer> srv;
  for (unsigned s = 0; s < opt.setups; ++s) {
    srv.reset();
    payloads.clear();
    vm = VmTally{};
    const auto t0 = Clock::now();
    for (const std::string& app : apps) payloads.push_back(build_payload(app, vm));
    server::ServerConfig cfg;
    if (opt.trace) cfg.pipeline_observer = &probe;
    record_server_shape(rep, cfg);
    srv = std::make_unique<server::SpecializationServer>(cfg);
    if (opt.trace) srv->add_observer(&probe);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
    vm_rate.push_back(vm.minstr_per_s());
  }

  const std::size_t passes =
      opt.count != 0
          ? opt.count
          : std::max<std::size_t>(kMinPasses,
                                  std::lround(opt.seconds / kPassSeconds));
  support::Xoshiro256 rng(support::SplitMix64(opt.seed).next());
  const std::vector<std::size_t> order =
      shuffled_passes(payloads.size(), passes, rng, /*fixed_first=*/true);
  rep.schedule_digest = digest_of(order);
  rep.config["client_threads"] = "1";
  rep.config["requests"] = std::to_string(order.size());
  rep.config["passes"] = std::to_string(passes);

  const server::ServerStats before = srv->stats();
  probe.set_recording(true);
  Samples latency;
  std::vector<Samples> per_app(payloads.size());
  std::vector<std::optional<Fingerprint>> got(order.size());
  ClientLayers client;
  std::uint64_t found = 0, selected = 0;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < order.size(); ++i) {
    const Payload& p = payloads[order[i]];
    srv->cache().clear();
    server::SpecializationRequest req;
    req.tenant = "cold";
    req.module = p.module;
    req.profile = p.profile;
    const auto t0 = Clock::now();
    std::uint64_t span = 0;
    if (opt.trace) {
      span = spans.open("request", t0, i + 1);
      probe.bind(req.tenant, i + 1, span);
    }
    const server::Ticket ticket = srv->submit(std::move(req));
    const auto t1 = Clock::now();
    const server::RequestOutcome& out = ticket.wait();
    const auto t2 = Clock::now();
    ++rep.attempted;
    latency.add(ms_between(t0, t2));
    per_app[order[i]].add(ms_between(t0, t2));
    if (opt.trace) {
      spans.close(span, t2);
      spans.add("server.submit", t0, t1, i + 1, span);
      spans.add("server.wait", t1, t2, i + 1, span);
      client.add(out, ms_between(t0, t1) * 1e3);
    }
    if (out.state == server::RequestState::Done && out.result) {
      got[i] = fingerprint(*out.result);
      found += out.result->candidates_found;
      selected += out.result->candidates_selected;
    } else {
      rep.fail(check_outcome(out, {}));
    }
  }
  const double wall_s = ms_between(start, Clock::now()) / 1e3;
  rep.peak_rss_mb = peak_rss_mb();
  probe.set_recording(false);
  const server::ServerStats after = srv->stats();
  srv->drain();

  // Correctness: every request equals the plain serial specialization of
  // its payload (computed after the timed loop).
  const std::vector<Fingerprint> reference = plain_references(payloads, 4);
  std::vector<std::uint64_t> digests;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (!got[i]) continue;  // already counted as failed
    digests.push_back(got[i]->digest());
    if (!(*got[i] == reference[order[i]])) {
      rep.fail(payloads[order[i]].app + " differs from the plain path: got " +
               got[i]->describe() + ", expected " +
               reference[order[i]].describe());
    }
  }
  rep.result_digest = digest_of(digests);

  std::vector<double> app_medians;
  for (std::size_t a = 0; a < payloads.size(); ++a) {
    app_medians.push_back(per_app[a].median());
    rep.per_app_ms[payloads[a].app] = per_app[a].median();
  }
  add_request_metrics(rep, setup_s, latency, app_medians, wall_s,
                      median_of(vm_rate));
  rep.exact["jit.candidates_found"] = found;
  rep.exact["jit.candidates_selected"] = selected;
  rep.exact["vm.instructions"] = vm.instructions;
  if (opt.trace) {
    finish_trace(rep, opt, probe, spans, before, after, client, vm,
                 setup_s.back());
  }
  return rep;
}

}  // namespace perfbench
