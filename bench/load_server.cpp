// Multi-tenant load harness for the SpecializationServer: replays a
// synthetic workload — N tenants, each submitting a stream of requests over
// the embedded-application suite with seeded arrival jitter and mixed
// priorities — against one server instance, then prints a per-tenant
// throughput/latency table (p50/p95/p99 of submission-to-terminal latency)
// plus the server-level counters (queue high-water, rejections, pool task
// and occupancy stats, shared cache/estimate hit rates) and the peak OS
// thread count of the whole process (sampled from /proc/self/status), so the
// shared-pool bounded-threads claim is directly observable. Every session
// runs on the server's one thread pool of --workers threads;
// --sessions sets the session concurrency independently of the pool width.
//
// The workload is fully deterministic from --seed in *content* (which tenant
// submits which app at which priority); completion order and latency numbers
// naturally vary with machine load.
//
// --dup-rate P makes the request stream duplicate-heavy: each scheduled
// request is, with probability P, a repeat of an earlier request's exact
// (module, profile) payload — picked Zipf-style so a few signatures dominate,
// like a popular module specialized by many tenants at once — and otherwise a
// fresh unique variant. Overlapping duplicates exercise the server's
// in-flight coalescing tier; the final report prints how many submissions
// coalesced versus ran the pipeline. --no-coalesce disables the tier for a
// differential run against the same schedule.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/app.hpp"
#include "server/server.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "vm/interpreter.hpp"

using namespace jitise;

namespace {

struct LoadOptions {
  unsigned tenants = 4;
  unsigned requests = 6;     // per tenant
  unsigned workers = 2;      // shared-pool compute threads
  unsigned sessions = 0;     // concurrent sessions (0 = workers)
  std::size_t queue_cap = 16;
  unsigned arrival_us = 200;  // mean inter-submit gap per tenant
  double deadline_ms = 0.0;   // per-request service deadline (0 = none)
  double dup_rate = 0.0;      // probability a request repeats a prior payload
  bool coalesce = true;       // server-side in-flight coalescing tier
  std::string suite = "classic";    // classic | micro | all
  std::string selector = "greedy";  // greedy | knapsack | isegen
  std::uint64_t isegen_iters = 0;   // 0 keeps the IsegenConfig default
  std::uint64_t seed = 42;
  std::string journal_file;   // persist the shared cache when set
  bool fsync = false;
  bool trace = false;
};

void usage(const char* prog) {
  std::printf(
      "usage: %s [--tenants N] [--requests N] [--workers N] [--sessions N]\n"
      "          [--queue-cap N] [--arrival-us N] [--deadline-ms D]\n"
      "          [--dup-rate P] [--no-coalesce] [--suite NAME]\n"
      "          [--selector NAME] [--isegen-iters N] [--seed S]\n"
      "          [--journal PATH] [--fsync] [--trace] [--help]\n"
      "  --tenants N     concurrent tenants (default 4)\n"
      "  --requests N    requests per tenant (default 6)\n"
      "  --workers N     compute threads in the shared thread pool\n"
      "                  (default 2); bounds the CAD threads\n"
      "  --sessions N    concurrent sessions (default: same as --workers)\n"
      "  --queue-cap N   admission queue capacity (default 16)\n"
      "  --arrival-us N  mean per-tenant inter-submit gap (default 200)\n"
      "  --deadline-ms D service deadline per request (default none)\n"
      "  --dup-rate P    fraction of requests repeating a prior payload,\n"
      "                  Zipf-skewed toward popular signatures (default 0)\n"
      "  --no-coalesce   disable the in-flight request-coalescing tier\n"
      "  --suite NAME    request mix: classic (default, the four embedded\n"
      "                  apps), micro (the eight irregular SPECInt-micro\n"
      "                  kernels), or all (both)\n"
      "  --selector NAME selection algorithm: greedy (default), knapsack, or\n"
      "                  isegen — the anytime refiner whose wall-clock budget\n"
      "                  is carved from each request's deadline headroom\n"
      "  --isegen-iters N\n"
      "                  ISEGEN iteration cap (0 keeps the built-in default)\n"
      "  --seed S        workload seed (default 42)\n"
      "  --journal PATH  persist the shared bitstream cache at PATH\n"
      "  --fsync         power-loss durability for the journal\n"
      "  --trace         per-event server trace on stderr\n",
      prog);
}

bool parse_u64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(text, &end, 10);
  return end != text && *end == '\0';
}

bool parse_f64(const char* text, double& out) {
  char* end = nullptr;
  out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

/// Prebuilt (module, profile) pair shared by every request that uses it.
struct Workload {
  std::string name;
  std::shared_ptr<const ir::Module> module;
  std::shared_ptr<const vm::Profile> profile;
};

Workload build_workload(const std::string& name) {
  auto app = std::make_shared<apps::App>(apps::build_app(name));
  vm::Machine machine(app->module);
  machine.run(app->entry, app->datasets[0].args, 1ull << 30);
  Workload w;
  w.name = name;
  // Aliasing shared_ptrs keep the whole App alive for as long as any queued
  // request references its module.
  w.module = std::shared_ptr<const ir::Module>(app, &app->module);
  w.profile = std::make_shared<const vm::Profile>(machine.profile());
  return w;
}

/// One pre-generated schedule slot: the exact payload a tenant will submit.
struct ScheduledRequest {
  std::shared_ptr<const ir::Module> module;
  std::shared_ptr<const vm::Profile> profile;
  int priority = 0;
};

/// Current OS thread count of this process (0 where /proc is unavailable).
unsigned read_thread_count() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0;
  char line[256];
  unsigned n = 0;
  while (std::fgets(line, sizeof line, f)) {
    if (std::sscanf(line, "Threads: %u", &n) == 1) break;
  }
  std::fclose(f);
  return n;
}

/// Samples the process thread count in the background and keeps the peak —
/// the observable for the "compute threads bounded by the pool, not the
/// session count" claim.
class PeakThreadSampler {
 public:
  PeakThreadSampler()
      : thread_([this] {
          while (!stop_.load(std::memory_order_relaxed)) {
            const unsigned n = read_thread_count();
            unsigned seen = peak_.load(std::memory_order_relaxed);
            while (n > seen && !peak_.compare_exchange_weak(
                                   seen, n, std::memory_order_relaxed)) {
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }) {}
  ~PeakThreadSampler() { stop(); }

  unsigned stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
    return peak_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<unsigned> peak_{0};
  std::thread thread_;
};

}  // namespace

int main(int argc, char** argv) {
  LoadOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](std::uint64_t& out) {
      if (i + 1 >= argc || !parse_u64(argv[++i], out)) {
        std::fprintf(stderr, "%s: %s needs a numeric value\n", argv[0],
                     arg.c_str());
        std::exit(2);
      }
    };
    std::uint64_t v = 0;
    if (arg == "--help" || arg == "-h") { usage(argv[0]); return 0; }
    else if (arg == "--tenants") { value(v); opt.tenants = unsigned(v); }
    else if (arg == "--requests") { value(v); opt.requests = unsigned(v); }
    else if (arg == "--workers") { value(v); opt.workers = unsigned(v); }
    else if (arg == "--sessions") { value(v); opt.sessions = unsigned(v); }
    else if (arg == "--queue-cap") { value(v); opt.queue_cap = v; }
    else if (arg == "--arrival-us") { value(v); opt.arrival_us = unsigned(v); }
    else if (arg == "--deadline-ms") { value(v); opt.deadline_ms = double(v); }
    else if (arg == "--dup-rate") {
      if (i + 1 >= argc || !parse_f64(argv[++i], opt.dup_rate) ||
          opt.dup_rate < 0.0 || opt.dup_rate > 1.0) {
        std::fprintf(stderr, "%s: --dup-rate needs a value in [0, 1]\n",
                     argv[0]);
        return 2;
      }
    }
    else if (arg == "--no-coalesce") { opt.coalesce = false; }
    else if (arg == "--suite" && i + 1 < argc) { opt.suite = argv[++i]; }
    else if (arg == "--selector" && i + 1 < argc) { opt.selector = argv[++i]; }
    else if (arg == "--isegen-iters") { value(v); opt.isegen_iters = v; }
    else if (arg == "--seed") { value(v); opt.seed = v; }
    else if (arg == "--journal" && i + 1 < argc) { opt.journal_file = argv[++i]; }
    else if (arg == "--fsync") { opt.fsync = true; }
    else if (arg == "--trace") { opt.trace = true; }
    else {
      std::fprintf(stderr, "%s: unrecognized argument '%s'\n", argv[0],
                   arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  if (opt.tenants == 0 || opt.requests == 0) return 0;

  std::printf("=== load_server: %u tenants x %u requests, %u pool workers, "
              "%u sessions, queue=%zu ===\n\n",
              opt.tenants, opt.requests, opt.workers,
              opt.sessions == 0 ? opt.workers : opt.sessions, opt.queue_cap);

  // The request mix: all workload modules are small enough that a full CAD
  // run per request finishes in milliseconds, varied enough that the shared
  // caches see both hits and misses. `classic` keeps the four embedded apps;
  // `micro` swaps in the eight irregular SPECInt-micro kernels (whose
  // candidate pools mostly starve at selection, exercising the server's
  // empty-selection path end to end); `all` mixes both.
  std::vector<std::string> mix;
  if (opt.suite == "classic" || opt.suite == "all") {
    mix.insert(mix.end(), {"adpcm", "fft", "sor", "whetstone"});
  }
  if (opt.suite == "micro" || opt.suite == "all") {
    const auto micro = apps::app_names(apps::Suite::Micro);
    mix.insert(mix.end(), micro.begin(), micro.end());
  }
  if (mix.empty()) {
    std::fprintf(stderr, "%s: unknown --suite '%s' (classic|micro|all)\n",
                 argv[0], opt.suite.c_str());
    return 2;
  }
  std::printf("suite: %s (%zu workloads)\n\n", opt.suite.c_str(), mix.size());
  std::vector<Workload> workloads;
  for (const std::string& name : mix) {
    workloads.push_back(build_workload(name));
  }

  server::ServerConfig config;
  config.workers = opt.workers;
  config.max_sessions = opt.sessions;
  config.queue_capacity = opt.queue_cap;
  config.coalesce_requests = opt.coalesce;
  if (opt.selector == "greedy") {
    config.specializer.selector = jit::SpecializerConfig::Selector::Greedy;
  } else if (opt.selector == "knapsack") {
    config.specializer.selector = jit::SpecializerConfig::Selector::Knapsack;
  } else if (opt.selector == "isegen") {
    config.specializer.selector = jit::SpecializerConfig::Selector::Isegen;
  } else {
    std::fprintf(stderr, "%s: unknown --selector '%s'\n", argv[0],
                 opt.selector.c_str());
    return 2;
  }
  if (opt.isegen_iters > 0) {
    config.specializer.isegen.max_iterations = opt.isegen_iters;
  }
  config.cache_journal_file = opt.journal_file;
  config.specializer.journal_fsync = opt.fsync;
  PeakThreadSampler thread_sampler;
  server::SpecializationServer srv(config);
  server::ServerTraceObserver tracer(stderr);
  if (opt.trace) srv.add_observer(&tracer);

  // Pre-generate the full schedule so it is deterministic from --seed alone.
  // A fresh slot clones a base app under a unique module name — a new
  // request signature, but the same pipeline work, and candidate signatures
  // are structural so the bitstream/estimate cache tiers behave as before.
  // A duplicate slot (probability --dup-rate) repeats an already-scheduled
  // payload, Zipf-weighted (1/(rank+1)) so early signatures stay popular the
  // way a hot module specialized by many tenants would.
  std::vector<std::vector<ScheduledRequest>> schedule(opt.tenants);
  std::vector<ScheduledRequest> unique_payloads;
  support::Xoshiro256 sched_rng(support::SplitMix64(opt.seed).next());
  const auto u01 = [&] { return double(sched_rng() >> 11) * 0x1.0p-53; };
  for (unsigned r = 0; r < opt.requests; ++r) {
    for (unsigned t = 0; t < opt.tenants; ++t) {
      ScheduledRequest slot;
      if (!unique_payloads.empty() && u01() < opt.dup_rate) {
        double total = 0.0;
        for (std::size_t i = 0; i < unique_payloads.size(); ++i)
          total += 1.0 / double(i + 1);
        double x = u01() * total;
        std::size_t pick = unique_payloads.size() - 1;
        for (std::size_t i = 0; i < unique_payloads.size(); ++i) {
          x -= 1.0 / double(i + 1);
          if (x <= 0.0) { pick = i; break; }
        }
        slot = unique_payloads[pick];
      } else {
        const Workload& base = workloads[sched_rng() % workloads.size()];
        auto variant = std::make_shared<ir::Module>(*base.module);
        variant->name += "#" + std::to_string(unique_payloads.size());
        slot.module = std::move(variant);
        slot.profile = base.profile;
        unique_payloads.push_back(slot);
      }
      slot.priority = int(sched_rng() % 3);
      schedule[t].push_back(std::move(slot));
    }
  }

  // Per-tenant submission threads: each replays its schedule column with a
  // seeded jittered arrival gap between submits.
  std::vector<std::vector<server::Ticket>> tickets(opt.tenants);
  std::vector<std::thread> submitters;
  submitters.reserve(opt.tenants);
  for (unsigned t = 0; t < opt.tenants; ++t) {
    submitters.emplace_back([&, t] {
      support::Xoshiro256 rng(support::SplitMix64(opt.seed + t).next());
      for (const ScheduledRequest& slot : schedule[t]) {
        server::SpecializationRequest req;
        req.tenant = "tenant-" + std::to_string(t);
        req.module = slot.module;
        req.profile = slot.profile;
        req.priority = slot.priority;
        req.deadline_ms = opt.deadline_ms;
        tickets[t].push_back(srv.submit(std::move(req)));
        const auto gap =
            std::chrono::microseconds(rng() % (2ull * opt.arrival_us + 1));
        std::this_thread::sleep_for(gap);
      }
    });
  }
  for (auto& s : submitters) s.join();
  // ServerStats has no candidate aggregates; sum them from the per-request
  // outcomes so suite-level starvation is observable (and greppable in CI).
  std::uint64_t candidates_found = 0, candidates_selected = 0;
  std::uint64_t done_requests = 0, starved_requests = 0;
  for (auto& per_tenant : tickets) {
    for (auto& ticket : per_tenant) {
      const server::RequestOutcome& outcome = ticket.wait();
      if (!outcome.result.has_value()) continue;
      ++done_requests;
      candidates_found += outcome.result->candidates_found;
      candidates_selected += outcome.result->candidates_selected;
      starved_requests += outcome.result->candidates_selected == 0;
    }
  }
  srv.drain();
  const unsigned peak_threads = thread_sampler.stop();

  const server::ServerStats stats = srv.stats();
  support::TextTable table({"tenant", "subm", "done", "rej", "exp", "canc",
                            "fail", "p50 ms", "p95 ms", "p99 ms", "req/s"});
  for (const auto& [tenant, ts] : stats.tenants) {
    table.add_row({tenant, support::strf("%llu", (unsigned long long)ts.submitted),
                   support::strf("%llu", (unsigned long long)ts.completed),
                   support::strf("%llu", (unsigned long long)ts.rejected),
                   support::strf("%llu", (unsigned long long)ts.expired),
                   support::strf("%llu", (unsigned long long)ts.cancelled),
                   support::strf("%llu", (unsigned long long)ts.failed),
                   support::strf("%.2f", ts.p50_ms),
                   support::strf("%.2f", ts.p95_ms),
                   support::strf("%.2f", ts.p99_ms),
                   support::strf("%.2f", ts.throughput_rps)});
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf(
      "\nserver: uptime %.2fs, queue high-water %zu, rejections %llu, "
      "expiries %llu, cancellations %llu\n",
      stats.uptime_s, stats.queue_high_water,
      (unsigned long long)stats.admission_rejections,
      (unsigned long long)stats.expiries,
      (unsigned long long)stats.cancellations);
  const support::ExecutorStats& ex = stats.executor;
  std::printf(
      "executor: %u pool workers, tasks search %llu / estimate %llu / "
      "cad %llu, occupancy high-water %u, peak process threads %u\n",
      ex.workers,
      (unsigned long long)ex.tasks_per_phase[std::size_t(
          support::Phase::Search)],
      (unsigned long long)ex.tasks_per_phase[std::size_t(
          support::Phase::Estimate)],
      (unsigned long long)ex.tasks_per_phase[std::size_t(support::Phase::Cad)],
      ex.occupancy_high_water, peak_threads);
  std::uint64_t admitted = 0;
  for (const auto& [tenant, ts] : stats.tenants)
    admitted += ts.submitted - ts.rejected;
  std::printf(
      "coalescing: %llu coalesced / %llu admitted (dedup rate %.1f%%), "
      "pipeline runs %llu / %zu unique signatures, promotions %llu\n",
      (unsigned long long)stats.coalesced_submits,
      (unsigned long long)admitted,
      admitted == 0 ? 0.0
                    : 100.0 * double(stats.coalesced_submits) /
                          double(admitted),
      (unsigned long long)stats.pipeline_runs, unique_payloads.size(),
      (unsigned long long)stats.promotions);
  std::printf(
      "shared caches: bitstream %llu hits / %llu misses (%zu entries, "
      "%llu evictions), estimates %llu hits / %llu misses (%.1f%% hit "
      "rate)\n",
      (unsigned long long)stats.cache_hits,
      (unsigned long long)stats.cache_misses, stats.cache_entries,
      (unsigned long long)stats.cache_evictions,
      (unsigned long long)stats.estimate_hits,
      (unsigned long long)stats.estimate_misses,
      100.0 * stats.estimate_hit_rate());
  std::printf(
      "isegen: %llu runs, %llu iterations, %llu moves accepted, "
      "+%.1f saving vs greedy seeds\n",
      (unsigned long long)stats.isegen_runs,
      (unsigned long long)stats.isegen_iterations,
      (unsigned long long)stats.isegen_accepted, stats.isegen_saving_delta);
  std::printf(
      "candidates: %llu found / %llu selected across %llu completed "
      "requests, %llu starved (0 selected)\n",
      (unsigned long long)candidates_found,
      (unsigned long long)candidates_selected,
      (unsigned long long)done_requests,
      (unsigned long long)starved_requests);
  return 0;
}
