// Reproduces the paper's Table IV: average break-even time of the embedded
// applications under (a) a partial-reconfiguration bitstream cache with hit
// rates 0-90 % and (b) a CAD tool flow accelerated by 0/30/60/90 %.
//
// Per the paper: a cache hit removes the *whole* generation cost of that
// candidate; which candidates are cached is drawn at random (seeded,
// averaged over trials); CAD acceleration scales the remaining cost
// linearly. Break-even is recomputed with the live/const-aware solver, so
// the rows do not scale linearly (frequency information matters).
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "support/duration.hpp"
#include "cad/runtime_model.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

using namespace jitise;

int main(int argc, char** argv) {
  const bench::SuiteOptions options = bench::parse_suite_options(argc, argv);
  std::printf("=== Table IV: embedded break-even vs. cache hit rate and CAD "
              "speedup ===\n\n");

  // Run the four embedded applications once (fanned out over the pool),
  // sharing one bitstream cache across the suite so structurally identical
  // candidates hit across apps; reuse their candidate costs.
  bench::SuiteOptions suite_options = options;
  suite_options.share_suite_cache = true;
  bench::SuiteCacheReport cache_report;
  const std::vector<bench::AppRun> runs = bench::run_apps(
      {"adpcm", "fft", "sor", "whetstone"}, suite_options,
      [](const bench::AppRun& run) {
        std::fprintf(stderr, "  [table4] %s done\n", run.app.name.c_str());
      },
      &cache_report);
  if (cache_report.enabled) {
    std::printf("suite bitstream cache: %llu hits / %llu misses "
                "(%.1f%% hit rate, %zu entries)\n",
                static_cast<unsigned long long>(cache_report.hits),
                static_cast<unsigned long long>(cache_report.misses),
                100.0 * cache_report.hit_rate(), cache_report.entries);
    if (cache_report.persisted)
      std::printf("  persisted via --suite-cache-file "
                  "(%zu entries warm-started this run)\n",
                  cache_report.warm_entries);
    std::printf("\n");
  }

  const double speedups[] = {0.0, 0.30, 0.60, 0.90};
  const int hit_rates[] = {0, 10, 20, 30, 40, 50, 60, 70, 80, 90};
  constexpr int kTrials = 64;

  support::TextTable table({"Cache hit [%]", "0% faster", "30% faster",
                            "60% faster", "90% faster"});

  for (const int hit : hit_rates) {
    std::vector<std::string> cells{support::strf("%d", hit)};
    for (const double faster : speedups) {
      double sum_break_even = 0.0;
      for (const bench::AppRun& run : runs) {
        // Average the random cache population over trials.
        double app_break_even = 0.0;
        support::Xoshiro256 rng(0xCACE5EEDull ^ (hit * 131) ^
                                static_cast<std::uint64_t>(faster * 1000));
        for (int trial = 0; trial < kTrials; ++trial) {
          double overhead = 0.0;
          for (const jit::ImplementedCandidate& impl : run.spec.implemented) {
            const bool cached = rng.below(100) < static_cast<std::uint64_t>(hit);
            if (!cached) overhead += impl.total_seconds() * (1.0 - faster);
          }
          app_break_even += bench::break_even_for(run, overhead);
        }
        sum_break_even += app_break_even / kTrials;
      }
      cells.push_back(
          support::format_hms(sum_break_even / static_cast<double>(runs.size())));
    }
    table.add_row(std::move(cells));
  }

  std::fputs(table.render().c_str(), stdout);

  std::printf("\nPaper reference corners: 0%%/0%% -> 01:59:55, 30%%/30%% -> "
              "01:01:42, 90%%/90%% -> 00:01:24\n");
  std::printf("Shape checks: monotone decreasing along both axes; the 30/30 "
              "point roughly halves the 0/0 point.\n");

  // §VI-B outlook: a coarse-grained overlay with customized (fast) tools.
  std::printf("\n--- outlook: coarse-grained overlay + customized tools "
              "(paper §VI-B) ---\n");
  double coarse_avg = 0.0;
  for (const bench::AppRun& run : runs) {
    jit::SpecializerConfig config;
    config.flow.runtime = cad::CadRuntimeModel::coarse_grained_overlay();
    vm::Machine machine(run.app.module);
    machine.run(run.app.entry, run.app.datasets[0].args, 1ull << 30);
    const auto spec = jit::specialize(run.app.module, machine.profile(), config);
    const double be = bench::break_even_for(run, spec.sum_total_s);
    coarse_avg += be / static_cast<double>(runs.size());
    std::printf("  %-10s overhead %s -> break-even %s\n",
                run.app.name.c_str(),
                support::format_min_sec(spec.sum_total_s).c_str(),
                support::format_hms(be).c_str());
  }
  std::printf("  average embedded break-even: %s — minutes instead of "
              "hours once the tool flow itself is fast\n",
              support::format_hms(coarse_avg).c_str());
  return 0;
}
