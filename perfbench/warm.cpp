// warm_serve — four tenants in a closed loop (one outstanding request each)
// against a server whose shared caches were warmed in setup. Each tenant
// submits its own renamed copy of every module, so every request has a fresh
// request signature, runs the whole pipeline and never coalesces, while every
// candidate hits the bitstream cache: the work is admission, request
// hashing, scheduling, search with estimate hits, selection and adaptation.
#include <algorithm>
#include <cmath>
#include <latch>
#include <memory>
#include <stdexcept>
#include <thread>

#include "harness.hpp"

namespace perfbench {
namespace {

/// Completed requests per second on the reference host; the run size is
/// `seconds * kRequestsPerSecond`, fixed per (seed, seconds).
constexpr double kRequestsPerSecond = 1250.0;
constexpr unsigned kTenants = 4;

/// 188.ammp is left out of the measured mix: every repeat request re-places
/// a speculatively dispatched candidate its final selection drops (so it is
/// never cached), which would make this workload CAD-bound.
bool in_warm_mix(const std::string& app) { return app != "188.ammp"; }

struct TenantResult {
  std::vector<Samples> per_app;
  ClientLayers client;
  std::uint64_t attempted = 0, found = 0, selected = 0;
  std::vector<std::uint64_t> digests;
  std::vector<std::string> failures;
};

}  // namespace

Report run_warm_serve(const Options& opt) {
  Report rep;
  SpanLog spans;
  LayerProbe probe(&spans);

  VmTally vm;
  std::vector<double> vm_rate;  // Minstr/s of each repetition
  std::vector<double> setup_s;
  std::vector<Payload> mix;                    // base payloads, measured mix
  std::vector<std::vector<Payload>> variants;  // [tenant][mix index]
  std::vector<Fingerprint> reference;          // per mix index
  std::unique_ptr<server::SpecializationServer> srv;
  for (unsigned s = 0; s < opt.setups; ++s) {
    srv.reset();
    mix.clear();
    variants.assign(kTenants, {});
    reference.clear();
    vm = VmTally{};
    const auto t0 = Clock::now();
    std::vector<Payload> all;
    for (const std::string& app : apps::app_names())
      all.push_back(build_payload(app, vm));
    for (const Payload& p : all) {
      if (!in_warm_mix(p.app)) continue;
      mix.push_back(p);
      for (unsigned t = 0; t < kTenants; ++t) {
        auto copy = std::make_shared<ir::Module>(*p.module);
        copy->name += "@tenant" + std::to_string(t);
        variants[t].push_back(Payload{p.app, std::move(copy), p.profile});
      }
    }
    server::ServerConfig cfg;
    if (opt.trace) cfg.pipeline_observer = &probe;
    record_server_shape(rep, cfg);
    srv = std::make_unique<server::SpecializationServer>(cfg);
    if (opt.trace) srv->add_observer(&probe);
    // Warm the shared bitstream and estimate caches: one request per app.
    std::vector<server::Ticket> warmup;
    for (const Payload& p : all) {
      server::SpecializationRequest req;
      req.tenant = "warmup";
      req.module = p.module;
      req.profile = p.profile;
      warmup.push_back(srv->submit(std::move(req)));
    }
    for (std::size_t i = 0; i < all.size(); ++i) {
      const server::RequestOutcome& out = warmup[i].wait();
      if (out.state != server::RequestState::Done || !out.result) {
        throw std::runtime_error("warm-up request for " + all[i].app + " " +
                                 server::state_name(out.state) + ": " +
                                 out.reason);
      }
      if (!in_warm_mix(all[i].app)) continue;
      // A warmed request finds every candidate in the bitstream cache.
      Fingerprint fp = fingerprint(*out.result);
      fp.miss_cad_s = 0.0;
      reference.push_back(std::move(fp));
    }
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
    vm_rate.push_back(vm.minstr_per_s());
  }

  const std::size_t per_tenant =
      opt.count != 0 ? opt.count
                     : std::max<std::size_t>(1, std::lround(opt.seconds *
                                                            kRequestsPerSecond /
                                                            kTenants));
  const std::size_t passes = (per_tenant + mix.size() - 1) / mix.size();
  std::vector<std::vector<std::size_t>> order(kTenants);
  std::vector<std::uint64_t> schedule_digests;
  for (unsigned t = 0; t < kTenants; ++t) {
    support::Xoshiro256 rng(support::SplitMix64(opt.seed * kTenants + t).next());
    order[t] = shuffled_passes(mix.size(), passes, rng, /*fixed_first=*/false);
    order[t].resize(per_tenant);
    schedule_digests.push_back(digest_of(order[t]));
  }
  rep.schedule_digest = digest_of(schedule_digests);
  rep.config["client_threads"] = std::to_string(kTenants);
  rep.config["requests"] = std::to_string(kTenants * order[0].size());

  const server::ServerStats before = srv->stats();
  probe.set_recording(true);
  std::vector<TenantResult> results(kTenants);
  std::latch go(kTenants + 1);
  std::vector<std::thread> clients;
  for (unsigned t = 0; t < kTenants; ++t) {
    clients.emplace_back([&, t] {
      TenantResult& r = results[t];
      r.per_app.resize(mix.size());
      const std::string tenant = "tenant" + std::to_string(t);
      go.arrive_and_wait();
      try {
        for (std::size_t i = 0; i < order[t].size(); ++i) {
          const std::size_t a = order[t][i];
          const Payload& p = variants[t][a];
          server::SpecializationRequest req;
          req.tenant = tenant;
          req.module = p.module;
          req.profile = p.profile;
          const std::uint64_t number = (i + 1) * kTenants + t;
          const auto t0 = Clock::now();
          std::uint64_t span = 0;
          if (opt.trace) {
            span = spans.open("request", t0, number);
            probe.bind(tenant, number, span);
          }
          const server::Ticket ticket = srv->submit(std::move(req));
          const auto t1 = Clock::now();
          const server::RequestOutcome& out = ticket.wait();
          const auto t2 = Clock::now();
          ++r.attempted;
          r.per_app[a].add(ms_between(t0, t2));
          if (opt.trace) {
            spans.close(span, t2);
            spans.add("server.submit", t0, t1, number, span);
            spans.add("server.wait", t1, t2, number, span);
            r.client.add(out, ms_between(t0, t1) * 1e3);
          }
          const std::string problem = check_outcome(out, reference[a]);
          if (!problem.empty()) {
            r.failures.push_back(p.app + ": " + problem);
            continue;
          }
          r.found += out.result->candidates_found;
          r.selected += out.result->candidates_selected;
          r.digests.push_back(fingerprint(*out.result).digest());
        }
      } catch (const std::exception& e) {
        r.failures.push_back(std::string("client ") + tenant + ": " + e.what());
      }
    });
  }
  go.arrive_and_wait();
  const auto start = Clock::now();
  for (std::thread& c : clients) c.join();
  const double wall_s = ms_between(start, Clock::now()) / 1e3;
  rep.peak_rss_mb = peak_rss_mb();
  probe.set_recording(false);
  const server::ServerStats after = srv->stats();
  srv->drain();

  Samples latency;
  std::vector<Samples> per_app(mix.size());
  ClientLayers client;
  std::uint64_t found = 0, selected = 0;
  std::vector<std::uint64_t> digests;
  for (const TenantResult& r : results) {
    rep.attempted += r.attempted;
    for (const std::string& f : r.failures) rep.fail(f);
    found += r.found;
    selected += r.selected;
    digests.push_back(digest_of(r.digests));
  }
  // Merge in a fixed order so percentiles do not depend on thread timing.
  for (unsigned t = 0; t < kTenants; ++t) {
    for (std::size_t a = 0; a < mix.size(); ++a) {
      for (double v : results[t].per_app[a].values()) {
        per_app[a].add(v);
        latency.add(v);
      }
    }
    results[t].client.merge_into(client);
  }
  rep.result_digest = digest_of(digests);

  std::vector<double> app_medians;
  for (std::size_t a = 0; a < mix.size(); ++a) {
    app_medians.push_back(per_app[a].median());
    rep.per_app_ms[mix[a].app] = per_app[a].median();
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
