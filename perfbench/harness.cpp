#include "harness.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <fstream>

#include "jit/specializer.hpp"
#include "support/statistics.hpp"
#include "vm/interpreter.hpp"

namespace perfbench {

double Samples::percentile(double p) const {
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  return support::percentile_of_sorted(sorted, p);
}

double median_of(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return support::percentile_of_sorted(xs, 50.0);
}

void Report::fail(const std::string& why) {
  ++failed;
  if (errors.size() < 8) errors.push_back(why);
}

std::uint64_t Fingerprint::digest() const {
  support::Fnv1a h;
  for (std::uint64_t s : signatures) h.update_value(s);
  for (std::uint32_t c : hw_cycles) h.update_value(c);
  h.update_value(predicted_speedup);
  h.update_value(miss_cad_s);
  return h.digest();
}

std::string Fingerprint::describe() const {
  std::uint64_t cycles = 0;
  for (std::uint32_t c : hw_cycles) cycles += c;
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "%zu selected, %llu hw cycles, speedup %.6f, miss CAD %.3f s",
                signatures.size(), static_cast<unsigned long long>(cycles),
                predicted_speedup, miss_cad_s);
  return buf;
}

Fingerprint fingerprint(const jit::SpecializationResult& r) {
  Fingerprint fp;
  fp.predicted_speedup = r.predicted_speedup;
  for (const auto& c : r.implemented) {
    fp.signatures.push_back(c.signature);
    fp.hw_cycles.push_back(c.hw_cycles);
    if (!c.cache_hit) fp.miss_cad_s += c.total_seconds();
  }
  return fp;
}

std::string check_outcome(const server::RequestOutcome& out,
                          const Fingerprint& expected) {
  using server::RequestState;
  if (out.state != RequestState::Done || !out.result) {
    return std::string("request ") + std::to_string(out.id) + " " +
           server::state_name(out.state) + ": " + out.reason;
  }
  const Fingerprint got = fingerprint(*out.result);
  if (got == expected) return {};
  return "request " + std::to_string(out.id) + " result differs: got " +
         got.describe() + ", expected " + expected.describe();
}

Payload build_payload(const std::string& app_name, VmTally& vm) {
  auto app = std::make_shared<apps::App>(apps::build_app(app_name));
  vm::Machine machine(app->module);
  const auto t0 = Clock::now();
  const vm::RunResult run =
      machine.run(app->entry, app->datasets.at(0).args, 1ull << 30);
  vm.add(ms_between(t0, Clock::now()), run.steps);
  Payload p;
  p.app = app_name;
  // Aliasing pointer: the module keeps its whole App alive.
  p.module = std::shared_ptr<const ir::Module>(app, &app->module);
  p.profile = std::make_shared<const vm::Profile>(machine.profile());
  return p;
}

void parallel_for(std::size_t n, unsigned threads,
                  const std::function<void(std::size_t)>& fn) {
  std::vector<std::exception_ptr> errors(n);
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i = next++; i < n; i = next++) {
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  {
    std::vector<std::jthread> pool;  // joined on scope exit, also on unwind
    for (unsigned t = 1; t < threads; ++t) pool.emplace_back(work);
    work();
  }
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
}

std::vector<Fingerprint> plain_references(const std::vector<Payload>& payloads,
                                          unsigned threads) {
  std::vector<Fingerprint> out(payloads.size());
  jit::SpecializerConfig cfg;
  cfg.jobs = 1;
  parallel_for(payloads.size(), threads, [&](std::size_t i) {
    jit::BitstreamCache cache;
    out[i] = fingerprint(jit::specialize(*payloads[i].module,
                                         *payloads[i].profile, cfg, &cache));
  });
  return out;
}

std::vector<std::size_t> shuffled_passes(std::size_t classes,
                                         std::size_t passes,
                                         support::Xoshiro256& rng,
                                         bool fixed_first) {
  std::vector<std::size_t> order;
  order.reserve(classes * passes);
  std::vector<std::size_t> pass(classes);
  for (std::size_t p = 0; p < passes; ++p) {
    for (std::size_t i = 0; i < classes; ++i) pass[i] = i;
    if (p > 0 || !fixed_first) {
      for (std::size_t i = classes; i > 1; --i)
        std::swap(pass[i - 1], pass[rng.below(i)]);
    }
    order.insert(order.end(), pass.begin(), pass.end());
  }
  return order;
}

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f)) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

// ---------------------------------------------------------------------------

std::uint32_t SpanLog::thread_number() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t mine = next.fetch_add(1);
  return mine;
}

std::uint64_t SpanLog::add(const char* name, Clock::time_point begin,
                           Clock::time_point end, std::uint64_t request,
                           std::uint64_t parent) {
  Span s{name, us(begin), us(end), 0, parent, request, thread_number()};
  std::lock_guard<std::mutex> lock(mu_);
  s.id = spans_.size() + 1;
  spans_.push_back(s);
  return s.id;
}

std::uint64_t SpanLog::open(const char* name, Clock::time_point begin,
                            std::uint64_t request, std::uint64_t parent) {
  return add(name, begin, begin, request, parent);
}

void SpanLog::close(std::uint64_t id, Clock::time_point end) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= 1 && id <= spans_.size()) spans_[id - 1].end_us = us(end);
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\"traceEvents\":[\n";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                  "\"parent\":%llu,\"request\":%llu}}\n",
                  i == 0 ? "" : ",", s.name, s.thread, s.begin_us,
                  s.end_us - s.begin_us, static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request));
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------

namespace {

constexpr const char* kPhaseSpan[3] = {"jit.search", "jit.implementation",
                                       "jit.adaptation"};

double other_stage_ms(const cad::ImplementationResult& hw) {
  return hw.c2v.real_ms + hw.syn.real_ms + hw.xst.real_ms + hw.tra.real_ms +
         hw.bitgen.real_ms;
}

}  // namespace

void LayerProbe::bind(const std::string& tenant, std::uint64_t request,
                      std::uint64_t request_span) {
  std::lock_guard<std::mutex> lock(mu_);
  bound_[tenant] = {request, request_span};
}

void LayerProbe::set_recording(bool on) {
  std::lock_guard<std::mutex> lock(mu_);
  recording_ = on;
}

void LayerProbe::on_admitted(std::uint64_t, const std::string&,
                             std::size_t queue_depth) {
  std::lock_guard<std::mutex> lock(mu_);
  if (recording_) queue_high_water_ = std::max(queue_high_water_, queue_depth);
}

void LayerProbe::on_started(std::uint64_t, const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!recording_) return;
  Running r;
  const auto it = bound_.find(tenant);
  if (it != bound_.end()) {
    r.request = it->second.first;
    r.request_span = it->second.second;
  }
  running_[std::this_thread::get_id()] = std::move(r);
}

void LayerProbe::on_phase_enter(jit::PipelinePhase phase) {
  const auto now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = running_.find(std::this_thread::get_id());
  if (it == running_.end()) return;
  const auto p = static_cast<std::size_t>(phase);
  it->second.phase_span[p] = spans_->open(kPhaseSpan[p], now,
                                          it->second.request,
                                          it->second.request_span);
}

void LayerProbe::on_phase_exit(jit::PipelinePhase phase,
                               double real_ms) {
  const auto now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = running_.find(std::this_thread::get_id());
  if (it == running_.end()) return;
  const auto p = static_cast<std::size_t>(phase);
  spans_->close(it->second.phase_span[p], now);
  phase_ms_[p].add(real_ms);
}

void LayerProbe::on_candidate_dispatched(std::uint64_t signature,
                                         bool speculative) {
  if (!speculative) return;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = running_.find(std::this_thread::get_id());
  if (it != running_.end()) it->second.speculative.insert(signature);
}

void LayerProbe::on_candidate_implemented(
    const std::string&, std::uint64_t signature,
    const cad::ImplementationResult& hw) {
  const auto now = Clock::now();
  const double total = hw.map.real_ms + hw.par.real_ms + other_stage_ms(hw);
  std::lock_guard<std::mutex> lock(mu_);
  if (!recording_) return;
  ++cad_runs_;
  map_ms_ += hw.map.real_ms;
  par_ms_ += hw.par.real_ms;
  other_ms_ += other_stage_ms(hw);
  hpwl_ += hw.placement_hpwl;
  wirelength_ += hw.routed_wirelength;
  cad_ms_[signature] = total;
  // Attribute the CAD chain to a request only when exactly one is running.
  std::uint64_t request = 0, parent = 0;
  if (running_.size() == 1) {
    const Running& r = running_.begin()->second;
    request = r.request;
    parent = r.phase_span[1] != 0 ? r.phase_span[1] : r.request_span;
  }
  const auto begin = now - std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(total));
  spans_->add("cad.candidate", begin, now, request, parent);
}

void LayerProbe::on_candidate_failed(const std::string&, std::uint64_t) {
  std::lock_guard<std::mutex> lock(mu_);
  if (recording_) ++cad_failed_;
}

void LayerProbe::on_finished(const server::RequestOutcome& outcome) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = running_.find(std::this_thread::get_id());
  if (it == running_.end()) return;
  // Speculative CAD whose candidate the final selection dropped.
  std::set<std::uint64_t> kept;
  if (outcome.result) {
    for (const auto& c : outcome.result->implemented) kept.insert(c.signature);
  }
  for (std::uint64_t sig : it->second.speculative) {
    if (kept.count(sig) != 0) continue;
    const auto ms = cad_ms_.find(sig);
    if (ms == cad_ms_.end()) continue;  // never reached CAD completion
    ++discarded_;
    discarded_ms_ += ms->second;
  }
  running_.erase(it);
}

void LayerProbe::report(std::map<std::string, double>& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out["jit.search_ms_p50"] = phase_ms_[0].median();
  out["jit.implementation_ms_p50"] = phase_ms_[1].median();
  out["jit.adaptation_ms_p50"] = phase_ms_[2].median();
  out["cad.map_ms"] = map_ms_;
  out["cad.par_ms"] = par_ms_;
  out["cad.other_ms"] = other_ms_;
  out["cad.runs"] = static_cast<double>(cad_runs_);
  out["cad.failed"] = static_cast<double>(cad_failed_);
  out["cad.speculative_discarded"] = static_cast<double>(discarded_);
  out["cad.discarded_ms"] = discarded_ms_;
  out["cad.useful_ratio"] =
      cad_runs_ > 0 ? static_cast<double>(cad_runs_ - discarded_) /
                          static_cast<double>(cad_runs_)
                    : 0.0;
  out["server.queue_high_water"] = static_cast<double>(queue_high_water_);
  out["cad.hpwl"] = hpwl_;
  out["cad.routed_wirelength"] = static_cast<double>(wirelength_);
}

void add_request_metrics(Report& rep, const std::vector<double>& setup_s,
                         const Samples& latency,
                         const std::vector<double>& class_medians,
                         double wall_s, double vm_minstr_per_s) {
  rep.metric("setup_s", median_of(setup_s), "s");
  rep.metric("request_p50_ms", latency.median(), "ms");
  rep.metric("request_geomean_ms", support::geomean_of(class_medians), "ms");
  rep.metric("request_p90_ms", latency.percentile(90.0), "ms");
  rep.metric("request_p99_ms", latency.percentile(99.0), "ms");
  rep.metric("requests_per_s", static_cast<double>(latency.size()) / wall_s,
             "1/s");
  rep.metric("vm_minstr_per_s", vm_minstr_per_s, "Minstr/s");
}

void record_server_shape(Report& rep, const server::ServerConfig& cfg) {
  rep.config["server_workers"] = std::to_string(cfg.workers);
  rep.config["server_sessions"] =
      std::to_string(cfg.max_sessions != 0 ? cfg.max_sessions : cfg.workers);
}

void add_server_layers(const server::ServerStats& before,
                       const server::ServerStats& after,
                       std::map<std::string, double>& out) {
  const auto d = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a);
  };
  const double hits = d(before.cache_hits, after.cache_hits);
  const double misses = d(before.cache_misses, after.cache_misses);
  out["jit.bitstream_hit_ratio"] =
      hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
  out["jit.cache_evictions"] = d(before.cache_evictions, after.cache_evictions);
  const double ehits = d(before.estimate_hits, after.estimate_hits);
  const double emiss = d(before.estimate_misses, after.estimate_misses);
  out["estimation.hit_ratio"] =
      ehits + emiss > 0.0 ? ehits / (ehits + emiss) : 0.0;
  using support::Phase;
  const auto tasks = [&](Phase p) {
    const auto i = static_cast<std::size_t>(p);
    return d(before.executor.tasks_per_phase[i],
             after.executor.tasks_per_phase[i]);
  };
  out["executor.tasks_search"] = tasks(Phase::Search);
  out["executor.tasks_estimate"] = tasks(Phase::Estimate);
  out["executor.tasks_cad"] = tasks(Phase::Cad);
  out["executor.steals"] = d(before.executor.steals, after.executor.steals);
  out["executor.occupancy_high_water"] = after.executor.occupancy_high_water;
  out["adaptive.phase_changes"] = d(before.phase_changes, after.phase_changes);
  out["adaptive.respecs"] =
      d(before.drift_respecializations, after.drift_respecializations);
  out["adaptive.keeps"] = d(before.drift_keeps, after.drift_keeps);
}

void ClientLayers::add(const server::RequestOutcome& out,
                       double submit_us_value) {
  submit_us.add(submit_us_value);
  queue_ms.add(out.queue_ms);
  run_ms.add(out.run_ms);
}

void ClientLayers::report(std::map<std::string, double>& out) const {
  out["server.submit_us_p50"] = submit_us.median();
  out["server.queue_ms_p50"] = queue_ms.median();
  out["server.queue_ms_p99"] = queue_ms.percentile(99.0);
  out["server.run_ms_p50"] = run_ms.median();
}

void finish_trace(Report& rep, const Options& opt, const LayerProbe& probe,
                  const SpanLog& spans, const server::ServerStats& before,
                  const server::ServerStats& after, const ClientLayers& client,
                  const VmTally& vm, double vm_wall_s) {
  probe.report(rep.layers);
  add_server_layers(before, after, rep.layers);
  client.report(rep.layers);
  rep.layers["vm.run_ms_p50"] = vm.run_ms.median();
  rep.layers["vm.share"] = vm.total_ms / 1e3 / vm_wall_s;
  if (!opt.spans_path.empty() && !spans.write(opt.spans_path))
    rep.fail("could not write spans to " + opt.spans_path);
}

}  // namespace perfbench
