// Reproduces the paper's Table III: the constant (candidate-independent)
// overheads of the implementation flow — C2V, syntax check, synthesis,
// translate, and partial-bitstream generation — as mean +- stdev over all
// candidates implemented across the suite, plus the map/PAR ranges of §V-C.
#include <cstdio>
#include <string>

#include "common.hpp"
#include "support/statistics.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

using namespace jitise;

int main(int argc, char** argv) {
  const bench::SuiteOptions options = bench::parse_suite_options(argc, argv);
  std::printf("=== Table III: constant ASIP-SP overheads "
              "(measured vs. paper) ===\n\n");
  std::fprintf(stderr, "  [table3] jobs: %u\n",
               options.jobs ? options.jobs
                            : support::ThreadPool::default_workers());

  support::RunningStats c2v, syn, xst, tra, bitgen, map_s, par_s, total;

  // Apps fan out over the pool; stats accumulate afterwards in app order so
  // the running means/stdevs see the same sequence as a serial run.
  const std::vector<bench::AppRun> runs = bench::run_apps(
      apps::app_names(), options, [](const bench::AppRun& run) {
        std::fprintf(stderr, "  [table3] %s done\n", run.app.name.c_str());
      });
  for (const bench::AppRun& run : runs) {
    for (const jit::ImplementedCandidate& impl : run.spec.implemented) {
      if (impl.cache_hit) continue;
      c2v.add(impl.c2v_s);
      syn.add(impl.syn_s);
      xst.add(impl.xst_s);
      tra.add(impl.tra_s);
      bitgen.add(impl.bitgen_s);
      map_s.add(impl.map_s);
      par_s.add(impl.par_s);
      total.add(impl.const_seconds());
    }
  }

  support::TextTable table(
      {"", "C2V[s]", "Syn[s]", "Xst[s]", "Tra[s]", "Bitgen[s]", "Sum[s]"});
  table.add_row({"Measured mean",
                 support::strf("%.2f", c2v.mean()),
                 support::strf("%.2f", syn.mean()),
                 support::strf("%.2f", xst.mean()),
                 support::strf("%.2f", tra.mean()),
                 support::strf("%.2f", bitgen.mean()),
                 support::strf("%.2f", total.mean())});
  table.add_row({"Measured stdev",
                 support::strf("%.2f", c2v.stdev()),
                 support::strf("%.2f", syn.stdev()),
                 support::strf("%.2f", xst.stdev()),
                 support::strf("%.2f", tra.stdev()),
                 support::strf("%.2f", bitgen.stdev()), ""});
  table.add_separator();
  table.add_row({"Paper mean", "3.22", "4.22", "10.60", "8.99", "151.00",
                 "178.03"});
  table.add_row({"Paper stdev", "0.10", "0.10", "0.23", "1.22", "2.43", ""});
  std::fputs(table.render().c_str(), stdout);

  std::printf("\nSize-dependent stages over %zu candidates (paper §V-C: map "
              "40-456 s, PAR 56-728 s):\n", map_s.count());
  std::printf("  map: min %.0f s, max %.0f s, mean %.0f s\n", map_s.min(),
              map_s.max(), map_s.mean());
  std::printf("  PAR: min %.0f s, max %.0f s, mean %.0f s\n", par_s.min(),
              par_s.max(), par_s.mean());
  std::printf("\nBitgen share of constant overheads: %.0f%% (paper: 85%%)\n",
              100.0 * bitgen.mean() / total.mean());
  return 0;
}
