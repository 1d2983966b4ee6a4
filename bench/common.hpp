// Shared driver for the table-generator benches: runs one application
// through the complete experiment pipeline (profiling on both data sets,
// VM/native time model, coverage + kernel statistics, upper-bound ASIP
// ratio, the pruned ASIP-SP with full CAD implementation, and break-even
// analysis).
#pragma once

#include <functional>
#include <map>
#include <string>

#include "apps/app.hpp"
#include "jit/breakeven.hpp"
#include "jit/specializer.hpp"
#include "vm/coverage.hpp"
#include "vm/time_model.hpp"

namespace jitise::bench {

struct AppRun {
  apps::App app;
  std::vector<vm::Profile> profiles;  // one per data set ([0] = train)
  vm::ExecTimes times;                // from the train profile
  vm::CoverageReport coverage;
  vm::KernelReport kernel;
  jit::UpperBound upper;              // Table I ASIP ratio (no pruning)
  jit::SpecializationResult spec;     // @50pS3L + CAD implementation
  double adapted_speedup = 1.0;       // differential execution, train set
  double break_even_s = 0.0;
};

struct SuiteOptions {
  bool implement_hardware = true;  // run the real CAD flow per candidate
  jit::BitstreamCache* cache = nullptr;
  unsigned jobs = 0;         // CAD worker threads; 0 = hardware_concurrency
  bool trace_stages = false; // per-candidate stage timing lines on stderr
  /// When no external `cache` is supplied, share one BitstreamCache across
  /// every app in a `run_apps` suite, so structurally identical candidates
  /// from different applications hit each other's bitstreams (paper §VI-A's
  /// cross-application database). An explicit `cache` is always shared.
  bool share_suite_cache = false;
  /// Persist the suite cache across invocations: the path of an append-only
  /// cache journal (jit::CacheJournal). Before the sweep the journal is
  /// replayed into the suite cache (warm start — a second run of the same
  /// sweep hits on every bitstream the first one generated), and every
  /// insert is journaled and flushed when the sweep ends. Implies
  /// `share_suite_cache`. An unreadable journal degrades to a cold run with
  /// a warning on stderr.
  std::string suite_cache_file;
  /// Power-loss durability for the suite cache journal: every sync is
  /// `fdatasync`ed and compaction fsyncs the rewritten file and its
  /// directory (jit::CacheJournal fsync mode). Meaningful only with
  /// `suite_cache_file`; off keeps the process-death crash model.
  bool suite_cache_fsync = false;
};

/// What the suite-shared bitstream cache did across one `run_apps` sweep.
/// Note: with app-level parallelism, *which* app pays for a bitstream's
/// generation (and which ones hit) depends on completion order — only the
/// aggregate counts and every app's numeric results are deterministic.
struct SuiteCacheReport {
  bool enabled = false;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::size_t entries = 0;
  /// Journal persistence (`--suite-cache-file`): whether a journal was
  /// attached, and how many entries its replay pre-loaded (warm start).
  bool persisted = false;
  std::size_t warm_entries = 0;
  [[nodiscard]] double hit_rate() const {
    const double total = static_cast<double>(hits + misses);
    return total > 0 ? static_cast<double>(hits) / total : 0.0;
  }
};

/// Runs the complete pipeline for one application.
[[nodiscard]] AppRun run_app(const std::string& name,
                             const SuiteOptions& options = {});

/// Serialized progress callback for `run_apps`: invoked once per finished
/// application (in completion order, never concurrently).
using AppDoneFn = std::function<void(const AppRun& run)>;

/// Runs the complete pipeline for every named application, fanning the apps
/// out over a thread pool. The one global jobs budget (`options.jobs`,
/// 0 = hardware_concurrency) is split between app-level workers and each
/// app's per-candidate CAD workers: `app_jobs = min(napps, jobs)` threads each run
/// whole apps with `max(1, jobs / app_jobs)` CAD jobs. Results come back
/// indexed like `names` regardless of completion order, and every app's
/// output is identical to a solo `run_app` (the specializer is bit-identical
/// across jobs counts), so table rows stay deterministic.
/// `cache_report` (optional) receives the suite-shared cache's aggregate
/// counters when `share_suite_cache` is set or an external cache is passed.
[[nodiscard]] std::vector<AppRun> run_apps(
    const std::vector<std::string>& names, const SuiteOptions& options = {},
    const AppDoneFn& on_done = {}, SuiteCacheReport* cache_report = nullptr);

/// Outcome of parsing a bench command line, side-effect free for testing.
struct ParsedSuiteOptions {
  enum class Status { Run, Help, Error };
  SuiteOptions options;
  Status status = Status::Run;
  std::string message;  // usage/help text (Help) or error + usage (Error)
};

/// Parses the shared bench command line: `--jobs N` (or `--jobs=N`),
/// `--trace` and `--help`; `jobs_env` (the JITISE_JOBS environment variable,
/// may be null) is the fallback for `jobs`. Never exits or prints — the
/// outcome is returned for the caller (or a unit test) to act on.
[[nodiscard]] ParsedSuiteOptions parse_suite_options_ex(
    int argc, const char* const* argv, const char* jobs_env);

/// Convenience wrapper over `parse_suite_options_ex` reading JITISE_JOBS
/// from the environment: prints the help text and exits 0 on `--help`,
/// prints the error and exits 2 on a bad command line.
[[nodiscard]] SuiteOptions parse_suite_options(int argc, char** argv);

/// Per-block speedup map (function,block) -> speedup from the implemented
/// custom instructions, used by the break-even solver.
[[nodiscard]] std::map<std::pair<ir::FuncId, ir::BlockId>, double>
block_speedups(const ir::Module& module, const woolcano::CiRegistry& registry,
               const vm::CostModel& cost);

/// Break-even seconds for a finished AppRun under a given total overhead.
[[nodiscard]] double break_even_for(const AppRun& run, double overhead_s);

/// A selected candidate as the CAD flow places it: its project's top netlist
/// synthesized, with the flow's per-candidate placer seed.
struct SelectedDesign {
  std::string app;
  fpga::MappedDesign design;
  fpga::PlacerConfig placer;
};

/// The final selections of `apps` (train profile, default specializer
/// configuration), each distinct design (by signature) once, in app and
/// selection order. Designs that do not fit the default region are left out:
/// the flow rejects them in translate, before placement.
[[nodiscard]] std::vector<SelectedDesign> selected_designs(
    const std::vector<std::string>& apps);

/// The designs cold specialization implements: `selected_designs` of the 14
/// classic apps and game_tree (the other micro kernels select nothing).
[[nodiscard]] std::vector<SelectedDesign> cold_designs();

}  // namespace jitise::bench
