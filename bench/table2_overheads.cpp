// Reproduces the paper's Table II: ASIP-SP runtime overheads and break-even
// times with the @50pS3L pruning filter.
//
// `real` is our genuinely measured candidate-search time; the CAD columns
// (const/map/par/sum) are modeled Xilinx-flow seconds from the calibrated
// runtime model, accumulated over every implemented candidate; break-even
// uses the live/const-aware solver.
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "support/duration.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

using namespace jitise;

int main(int argc, char** argv) {
  const bench::SuiteOptions options = bench::parse_suite_options(argc, argv);
  std::printf("=== Table II: ASIP-SP runtime overheads (measured vs. paper) "
              "===\n\n");
  std::fprintf(stderr, "  [table2] jobs: %u\n",
               options.jobs ? options.jobs
                            : support::ThreadPool::default_workers());

  support::TextTable table({"App", "real[ms] m/p", "blk m/p", "ins m/p",
                            "can m/p", "ratio m/p", "const m/p", "map m/p",
                            "par m/p", "sum m/p", "break-even m/p"});

  struct Acc {
    double real = 0, ratio = 0, csum = 0, msum = 0, psum = 0, sum = 0, be = 0;
    double blk = 0, ins = 0, can = 0;
    int n = 0;
  } sci, emb, micro;

  // Apps fan out over the pool; rows render afterwards in app order, so the
  // table is identical regardless of completion order. Registry layout: 10
  // scientific, then embedded, then the irregular micro suite.
  const std::vector<std::string> names = apps::app_names();
  const std::size_t n_sci = 10;
  const std::size_t n_classic = apps::app_names(apps::Suite::Classic).size();
  const std::vector<bench::AppRun> runs =
      bench::run_apps(names, options, [](const bench::AppRun& run) {
        std::fprintf(stderr,
                     "  [table2] %s done (%zu candidates implemented)\n",
                     run.app.name.c_str(), run.spec.implemented.size());
      });

  for (std::size_t index = 0; index < runs.size(); ++index) {
    const bench::AppRun& run = runs[index];
    const std::string& name = names[index];
    const apps::PaperStats& p = run.app.paper;
    const auto& spec = run.spec;

    table.add_row({
        name,
        support::strf("%.2f/%.2f", spec.search_real_ms, p.search_ms),
        support::strf("%zu/%d", spec.prune.blocks.size(), p.pruned_blocks),
        support::strf("%zu/%d", spec.prune.passed_instructions,
                      p.pruned_instructions),
        support::strf("%zu/%d", spec.candidates_selected, p.candidates),
        support::strf("%.2f/%.2f", run.adapted_speedup, p.asip_ratio_pruned),
        support::format_min_sec(spec.sum_const_s) + "/" + p.const_mmss,
        support::format_min_sec(spec.sum_map_s) + "/" + p.map_mmss,
        support::format_min_sec(spec.sum_par_s) + "/" + p.par_mmss,
        support::format_min_sec(spec.sum_total_s) + "/" + p.sum_mmss,
        (run.break_even_s == jit::kNeverBreaksEven
             ? std::string("never")
             : support::format_day_hms(run.break_even_s)) +
            "/" + p.break_even_dhms,
    });

    Acc& acc = index < n_sci ? sci : index < n_classic ? emb : micro;
    acc.real += spec.search_real_ms;
    acc.blk += static_cast<double>(spec.prune.blocks.size());
    acc.ins += static_cast<double>(spec.prune.passed_instructions);
    acc.can += static_cast<double>(spec.candidates_selected);
    acc.ratio += run.adapted_speedup;
    acc.csum += spec.sum_const_s;
    acc.msum += spec.sum_map_s;
    acc.psum += spec.sum_par_s;
    acc.sum += spec.sum_total_s;
    if (run.break_even_s != jit::kNeverBreaksEven) acc.be += run.break_even_s;
    ++acc.n;
    if (index + 1 == n_sci || index + 1 == n_classic ||
        index + 1 == runs.size())
      table.add_separator();
  }

  auto avg_row = [&](const char* label, const Acc& a, const char* p_real,
                     const char* p_can, const char* p_ratio, const char* p_sum,
                     const char* p_be) {
    const double n = a.n;
    table.add_row({label,
                   support::strf("%.2f/%s", a.real / n, p_real),
                   support::strf("%.1f/-", a.blk / n),
                   support::strf("%.0f/-", a.ins / n),
                   support::strf("%.1f/%s", a.can / n, p_can),
                   support::strf("%.2f/%s", a.ratio / n, p_ratio),
                   support::format_min_sec(a.csum / n) + "/-",
                   support::format_min_sec(a.msum / n) + "/-",
                   support::format_min_sec(a.psum / n) + "/-",
                   support::format_min_sec(a.sum / n) + "/" + p_sum,
                   support::format_day_hms(a.be / n) + "/" + p_be});
  };
  avg_row("AVG-S", sci, "3.80", "49", "1.20", "270:28", "881:00:33:54");
  avg_row("AVG-E", emb, "0.60", "8", "4.98", "49:53", "0:01:59:55");
  if (micro.n > 0) avg_row("AVG-M", micro, "-", "-", "-", "-", "-");

  std::fputs(table.render().c_str(), stdout);

  std::printf("\nShape checks (paper in parentheses):\n");
  std::printf("  embedded speedup after pruning >> scientific: %.2fx vs %.2fx "
              "(4.98 vs 1.20)\n", emb.ratio / emb.n, sci.ratio / sci.n);
  std::printf("  embedded break-even avg: %s  (paper 0:01:59:55)\n",
              support::format_day_hms(emb.be / emb.n).c_str());
  std::printf("  scientific break-even avg: %s  (paper 881:00:33:54)\n",
              support::format_day_hms(sci.be / sci.n).c_str());
  std::printf("  candidate search stays in milliseconds: AVG-S %.2f ms, "
              "AVG-E %.2f ms (3.80 / 0.60)\n", sci.real / sci.n,
              emb.real / emb.n);
  if (micro.n > 0)
    std::printf("  irregular micro suite: %.1f candidates selected on "
                "average (no paper baseline)\n", micro.can / micro.n);
  return 0;
}
