#include "common.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <optional>
#include <string>

#include "jit/cache_io.hpp"
#include "support/thread_pool.hpp"
#include "woolcano/asip.hpp"

namespace jitise::bench {

namespace {

std::string usage_text(const char* prog) {
  std::string text;
  text += "usage: ";
  text += prog;
  text += " [--jobs N] [--suite-cache] [--suite-cache-file PATH]"
          " [--suite-cache-fsync] [--trace] [--help]\n";
  text +=
      "  --jobs N       worker threads, split between the app fan-out and\n"
      "                 each app's CAD thread pool (0 = hardware\n"
      "                 concurrency; JITISE_JOBS is the fallback when the\n"
      "                 flag is absent)\n"
      "  --suite-cache  share one bitstream cache across all apps in the\n"
      "                 suite (cross-application hits, paper Sec. VI-A)\n"
      "  --suite-cache-file PATH\n"
      "                 persist the suite cache in an append-only journal at\n"
      "                 PATH, warm-starting later invocations (implies\n"
      "                 --suite-cache)\n"
      "  --suite-cache-fsync\n"
      "                 fdatasync every journal sync and fsync compactions\n"
      "                 (power-loss durability; implies --suite-cache)\n"
      "  --trace        per-candidate CAD stage timing lines on stderr\n"
      "  --help         show this help\n";
  return text;
}

/// Parses a --jobs value; returns false (with `error` set) on junk.
bool parse_jobs_value(const char* text, unsigned& jobs, std::string& error) {
  char* end = nullptr;
  const unsigned long value = std::strtoul(text, &end, 10);
  if (end == text || *end != '\0') {
    error = std::string("invalid --jobs value '") + text + "'";
    return false;
  }
  jobs = static_cast<unsigned>(value);
  return true;
}

}  // namespace

ParsedSuiteOptions parse_suite_options_ex(int argc, const char* const* argv,
                                          const char* jobs_env) {
  ParsedSuiteOptions parsed;
  const char* prog = argc > 0 ? argv[0] : "bench";
  std::string error;
  if (jobs_env != nullptr &&
      !parse_jobs_value(jobs_env, parsed.options.jobs, error)) {
    parsed.status = ParsedSuiteOptions::Status::Error;
    parsed.message = std::string(prog) + ": JITISE_JOBS: " + error + "\n" +
                     usage_text(prog);
    return parsed;
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      parsed.status = ParsedSuiteOptions::Status::Help;
      parsed.message = usage_text(prog);
      return parsed;
    }
    const char* jobs_text = nullptr;
    if (arg == "--trace") {
      parsed.options.trace_stages = true;
      continue;
    }
    if (arg == "--suite-cache") {
      parsed.options.share_suite_cache = true;
      continue;
    }
    if (arg == "--suite-cache-fsync") {
      parsed.options.suite_cache_fsync = true;
      parsed.options.share_suite_cache = true;
      continue;
    }
    const char* cache_file = nullptr;
    if (arg == "--suite-cache-file" && i + 1 < argc) {
      cache_file = argv[++i];
    } else if (arg.rfind("--suite-cache-file=", 0) == 0) {
      cache_file = arg.c_str() + 19;
    }
    if (cache_file != nullptr) {
      if (*cache_file == '\0') {
        parsed.status = ParsedSuiteOptions::Status::Error;
        parsed.message = std::string(prog) +
                         ": --suite-cache-file needs a path\n" +
                         usage_text(prog);
        return parsed;
      }
      parsed.options.suite_cache_file = cache_file;
      parsed.options.share_suite_cache = true;
      continue;
    }
    if (arg == "--suite-cache-file") {
      parsed.status = ParsedSuiteOptions::Status::Error;
      parsed.message = std::string(prog) +
                       ": --suite-cache-file needs a path\n" +
                       usage_text(prog);
      return parsed;
    }
    if (arg == "--jobs" && i + 1 < argc) {
      jobs_text = argv[++i];
    } else if (arg.rfind("--jobs=", 0) == 0) {
      jobs_text = arg.c_str() + 7;
    } else {
      parsed.status = ParsedSuiteOptions::Status::Error;
      parsed.message = std::string(prog) + ": unrecognized argument '" + arg +
                       "'\n" + usage_text(prog);
      return parsed;
    }
    if (!parse_jobs_value(jobs_text, parsed.options.jobs, error)) {
      parsed.status = ParsedSuiteOptions::Status::Error;
      parsed.message = std::string(prog) + ": " + error + "\n" +
                       usage_text(prog);
      return parsed;
    }
  }
  return parsed;
}

SuiteOptions parse_suite_options(int argc, char** argv) {
  const ParsedSuiteOptions parsed =
      parse_suite_options_ex(argc, argv, std::getenv("JITISE_JOBS"));
  switch (parsed.status) {
    case ParsedSuiteOptions::Status::Run:
      return parsed.options;
    case ParsedSuiteOptions::Status::Help:
      std::fputs(parsed.message.c_str(), stdout);
      std::exit(0);
    case ParsedSuiteOptions::Status::Error:
      std::fputs(parsed.message.c_str(), stderr);
      std::exit(2);
  }
  return parsed.options;  // unreachable
}

std::map<std::pair<ir::FuncId, ir::BlockId>, double> block_speedups(
    const ir::Module& module, const woolcano::CiRegistry& registry,
    const vm::CostModel& cost) {
  // Savings per block = sum over its custom instructions of
  // (covered SW cycles - HW cycles); speedup = static / (static - saved).
  std::map<std::pair<ir::FuncId, ir::BlockId>, double> saved;
  for (const woolcano::CustomInstruction& ci : registry.all()) {
    const ir::Function& fn = module.functions[ci.candidate.function];
    const ir::BasicBlock& block = fn.blocks[ci.candidate.block];
    double sw = 0.0;
    for (dfg::NodeId n : ci.candidate.nodes) {
      const ir::Instruction& inst = fn.values[block.instrs[n]];
      sw += cost.cycles(inst.op, inst.type);
    }
    const double gain = sw - static_cast<double>(ci.hw_cycles);
    if (gain > 0)
      saved[{ci.candidate.function, ci.candidate.block}] += gain;
  }

  std::map<std::pair<ir::FuncId, ir::BlockId>, double> speedups;
  for (const auto& [key, gain] : saved) {
    const ir::Function& fn = module.functions[key.first];
    double static_cycles = 0.0;
    for (ir::ValueId v : fn.blocks[key.second].instrs)
      static_cycles += cost.cycles(fn.values[v].op, fn.values[v].type);
    const double accel = static_cycles - gain;
    speedups[key] = accel > 0 ? static_cycles / accel : static_cycles;
  }
  return speedups;
}

double break_even_for(const AppRun& run, double overhead_s) {
  const vm::CostModel cost;
  const auto speedup_map =
      block_speedups(run.app.module, run.spec.registry, cost);
  const auto terms = jit::block_terms(
      run.app.module, run.profiles[0], run.coverage, cost,
      [&](ir::FuncId f, ir::BlockId b) {
        const auto it = speedup_map.find({f, b});
        return it != speedup_map.end() ? it->second : 1.0;
      });
  return jit::break_even_seconds(terms, overhead_s);
}

AppRun run_app(const std::string& name, const SuiteOptions& options) {
  AppRun run;
  run.app = apps::build_app(name);

  vm::Machine machine(run.app.module);
  for (const apps::Dataset& ds : run.app.datasets) {
    machine.clear_profile();
    machine.reset_memory();
    machine.run(run.app.entry, ds.args, 1ull << 30);
    run.profiles.push_back(machine.profile());
  }

  const vm::CostModel cost;
  run.times = vm::model_exec_times(run.app.module, run.profiles[0], cost);
  run.coverage = vm::classify_coverage(run.app.module, run.profiles);
  run.kernel = vm::find_kernel(run.app.module, run.profiles[0], cost);
  run.upper = jit::asip_upper_bound(run.app.module, run.profiles[0], cost);

  jit::SpecializerConfig config;
  config.implement_hardware = options.implement_hardware;
  config.jobs = options.jobs;
  config.trace_stages = options.trace_stages;
  config.journal_fsync = options.suite_cache_fsync;
  run.spec =
      jit::specialize(run.app.module, run.profiles[0], config, options.cache);

  // Differential adapted execution on the train set (also validates the
  // rewrite end to end in every bench run).
  const auto adapted = woolcano::run_adapted(
      run.app.module, run.spec.rewritten, run.spec.registry, run.app.entry,
      run.app.datasets[0].args, cost);
  run.adapted_speedup = adapted.speedup();

  run.break_even_s = break_even_for(run, run.spec.sum_total_s);
  return run;
}

std::vector<AppRun> run_apps(const std::vector<std::string>& names,
                             const SuiteOptions& options,
                             const AppDoneFn& on_done,
                             SuiteCacheReport* cache_report) {
  const unsigned total = options.jobs != 0
                             ? options.jobs
                             : support::ThreadPool::default_workers();
  const unsigned app_jobs = static_cast<unsigned>(
      std::min<std::size_t>(names.size(), total));

  // Suite-shared cache: one BitstreamCache for the whole sweep, created here
  // when requested and not supplied by the caller. BitstreamCache is
  // thread-safe (lock-striped), so app workers share it directly. Per-app
  // numeric results stay deterministic either way (hit or generate, the
  // implementation metrics are identical); only *timing* attribution — which
  // app paid generation seconds — depends on completion order.
  SuiteOptions per = options;
  std::optional<jit::BitstreamCache> suite_cache;
  if ((options.share_suite_cache || !options.suite_cache_file.empty()) &&
      per.cache == nullptr) {
    suite_cache.emplace();
    per.cache = &*suite_cache;
  }

  // Suite-cache persistence: replay the journal into the suite cache (warm
  // start) and mirror every insert back into it. The journal must outlive
  // the runs below — the specializer's persistence tail syncs it per app,
  // and the final sync/compaction happens before it is destroyed here.
  std::optional<jit::CacheJournal> journal;
  std::size_t warm_entries = 0;
  if (!options.suite_cache_file.empty() && per.cache != nullptr) {
    try {
      journal.emplace(options.suite_cache_file);
      journal->set_fsync(options.suite_cache_fsync);
      const jit::CacheLoadReport replay = journal->attach(*per.cache);
      warm_entries = replay.entries;
    } catch (const std::exception& e) {
      std::fprintf(stderr,
                   "warning: suite cache file unusable, running cold (%s)\n",
                   e.what());
      journal.reset();
    }
  }

  const auto fill_report = [&] {
    if (journal) {
      journal->sync();
      journal->maybe_compact(*per.cache);
      // Detach before the journal dies — an externally supplied cache
      // outlives this call and must not keep a dangling sink.
      per.cache->set_journal(nullptr);
    }
    if (cache_report == nullptr) return;
    *cache_report = SuiteCacheReport{};
    if (per.cache == nullptr) return;
    cache_report->enabled = true;
    cache_report->hits = per.cache->hits();
    cache_report->misses = per.cache->misses();
    cache_report->entries = per.cache->entries();
    cache_report->persisted = journal.has_value();
    cache_report->warm_entries = warm_entries;
  };

  std::vector<AppRun> runs(names.size());
  if (app_jobs <= 1) {
    per.jobs = total;
    for (std::size_t i = 0; i < names.size(); ++i) {
      runs[i] = run_app(names[i], per);
      if (on_done) on_done(runs[i]);
    }
    fill_report();
    return runs;
  }

  // Split the one jobs budget across nesting levels: `app_jobs` workers run
  // whole apps, each specializing with its share of CAD workers.
  per.jobs = std::max(1u, total / app_jobs);

  // Each app task blocks only on its own run's private pool, never on this
  // one, so nesting cannot deadlock. Nothing reads this pool's counters.
  std::mutex done_mu;
  support::ThreadPool pool(app_jobs);
  support::TaskGroup group;
  for (std::size_t i = 0; i < names.size(); ++i) {
    pool.submit(support::Phase::Search, group, [&, i] {
      runs[i] = run_app(names[i], per);
      if (on_done) {
        std::lock_guard<std::mutex> lock(done_mu);
        on_done(runs[i]);
      }
    });
  }
  group.wait();
  fill_report();
  return runs;
}

}  // namespace jitise::bench
