// Suite-wide integration properties: for every benchmark application, the
// full hardware pipeline must be deterministic, cache-keyable and
// semantics-preserving on every data set.
#include <gtest/gtest.h>

#include <cstdlib>

#include "apps/app.hpp"
#include "ir/verifier.hpp"
#include "ise/isegen.hpp"
#include "ise/selection.hpp"
#include "jit/pipeline.hpp"
#include "jit/specializer.hpp"
#include "support/rng.hpp"
#include "woolcano/asip.hpp"

namespace {

using namespace jitise;

class Pipeline : public ::testing::TestWithParam<std::string> {
 protected:
  static vm::Profile profile_of(const apps::App& app) {
    vm::Machine machine(app.module);
    machine.run(app.entry, app.datasets[0].args, 1ull << 30);
    return machine.profile();
  }
};

INSTANTIATE_TEST_SUITE_P(AllApps, Pipeline,
                         ::testing::ValuesIn(apps::app_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n)
                             if (c == '.') c = '_';
                           return n;
                         });

TEST_P(Pipeline, SpecializationIsDeterministic) {
  const apps::App app = apps::build_app(GetParam());
  const auto profile = profile_of(app);
  jit::SpecializerConfig config;
  const auto s1 = jit::specialize(app.module, profile, config);
  const auto s2 = jit::specialize(app.module, profile, config);
  ASSERT_EQ(s1.implemented.size(), s2.implemented.size());
  for (std::size_t i = 0; i < s1.implemented.size(); ++i) {
    EXPECT_EQ(s1.implemented[i].signature, s2.implemented[i].signature);
    EXPECT_EQ(s1.implemented[i].bitstream_bytes, s2.implemented[i].bitstream_bytes);
    EXPECT_EQ(s1.implemented[i].hw_cycles, s2.implemented[i].hw_cycles);
    EXPECT_DOUBLE_EQ(s1.implemented[i].total_seconds(),
                     s2.implemented[i].total_seconds());
  }
  EXPECT_DOUBLE_EQ(s1.sum_total_s, s2.sum_total_s);
  EXPECT_DOUBLE_EQ(s1.predicted_speedup, s2.predicted_speedup);
}

TEST_P(Pipeline, RewritePreservesSemanticsOnAllDatasets) {
  const apps::App app = apps::build_app(GetParam());
  const auto profile = profile_of(app);
  jit::SpecializerConfig config;
  const auto spec = jit::specialize(app.module, profile, config);
  ir::verify_module_or_throw(spec.rewritten);

  for (const apps::Dataset& ds : app.datasets) {
    const auto diff = woolcano::run_adapted(app.module, spec.rewritten,
                                            spec.registry, app.entry, ds.args);
    EXPECT_EQ(diff.original_result.i, diff.adapted_result.i)
        << GetParam() << " dataset " << ds.name;
    EXPECT_GE(diff.speedup(), 0.999) << "adaptation must never slow down";
  }
}

TEST_P(Pipeline, CacheRoundTripMatchesFreshImplementation) {
  const apps::App app = apps::build_app(GetParam());
  const auto profile = profile_of(app);
  jit::BitstreamCache cache;
  jit::SpecializerConfig config;
  const auto fresh = jit::specialize(app.module, profile, config, &cache);
  const auto cached = jit::specialize(app.module, profile, config, &cache);
  ASSERT_EQ(fresh.implemented.size(), cached.implemented.size());
  for (std::size_t i = 0; i < fresh.implemented.size(); ++i) {
    EXPECT_TRUE(cached.implemented[i].cache_hit);
    EXPECT_EQ(cached.implemented[i].hw_cycles, fresh.implemented[i].hw_cycles);
  }
  // The cached hardware must behave identically on the reference data set.
  const auto d1 = woolcano::run_adapted(app.module, fresh.rewritten,
                                        fresh.registry, app.entry,
                                        app.datasets[1].args);
  const auto d2 = woolcano::run_adapted(app.module, cached.rewritten,
                                        cached.registry, app.entry,
                                        app.datasets[1].args);
  EXPECT_EQ(d1.adapted_result.i, d2.adapted_result.i);
  EXPECT_EQ(d1.adapted_cycles, d2.adapted_cycles);
}

TEST_P(Pipeline, ParallelSearchMatchesSerialSearch) {
  // Differential check per app: the full pipeline with its per-candidate CAD
  // chains fanned out over a pool must be bit-identical to the serial run —
  // every implemented candidate (modeled seconds included), the failure
  // count, the predicted speedup and the bitstream cache it fills. The
  // worker count follows JITISE_JOBS so CI can run it wide. The name dates
  // from the block-parallel candidate search; the search is serial now and
  // the CAD sweep is the only parallel leg.
  const apps::App app = apps::build_app(GetParam());
  const auto profile = profile_of(app);

  unsigned workers = 4;
  if (const char* env = std::getenv("JITISE_JOBS")) {
    const unsigned long parsed = std::strtoul(env, nullptr, 10);
    if (parsed > 0) workers = static_cast<unsigned>(parsed);
  }

  jit::SpecializerConfig serial_cfg;
  serial_cfg.jobs = 1;
  jit::SpecializerConfig parallel_cfg = serial_cfg;
  parallel_cfg.jobs = workers;

  jit::BitstreamCache serial_cache, parallel_cache;
  const auto serial =
      jit::specialize(app.module, profile, serial_cfg, &serial_cache);
  const auto parallel =
      jit::specialize(app.module, profile, parallel_cfg, &parallel_cache);
  EXPECT_EQ(serial.candidates_found, parallel.candidates_found);
  EXPECT_EQ(serial.candidates_selected, parallel.candidates_selected);
  EXPECT_EQ(serial.candidates_failed, parallel.candidates_failed);
  EXPECT_EQ(serial.predicted_speedup, parallel.predicted_speedup);
  ASSERT_EQ(serial.implemented.size(), parallel.implemented.size());
  for (std::size_t i = 0; i < serial.implemented.size(); ++i) {
    const jit::ImplementedCandidate& x = serial.implemented[i];
    const jit::ImplementedCandidate& y = parallel.implemented[i];
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.signature, y.signature);
    EXPECT_EQ(x.cache_hit, y.cache_hit);
    EXPECT_EQ(x.instructions, y.instructions);
    EXPECT_EQ(x.cells, y.cells);
    EXPECT_EQ(x.bitstream_bytes, y.bitstream_bytes);
    EXPECT_EQ(x.hw_cycles, y.hw_cycles);
    EXPECT_EQ(x.area_slices, y.area_slices);
    EXPECT_EQ(x.c2v_s, y.c2v_s);
    EXPECT_EQ(x.syn_s, y.syn_s);
    EXPECT_EQ(x.xst_s, y.xst_s);
    EXPECT_EQ(x.tra_s, y.tra_s);
    EXPECT_EQ(x.map_s, y.map_s);
    EXPECT_EQ(x.par_s, y.par_s);
    EXPECT_EQ(x.bitgen_s, y.bitgen_s);
  }

  EXPECT_EQ(serial_cache.hits(), parallel_cache.hits());
  EXPECT_EQ(serial_cache.misses(), parallel_cache.misses());
  const auto serial_entries = serial_cache.snapshot();
  const auto parallel_entries = parallel_cache.snapshot();
  ASSERT_EQ(serial_entries.size(), parallel_entries.size());
  for (std::size_t i = 0; i < serial_entries.size(); ++i) {
    const auto& [sig_x, x] = serial_entries[i];
    const auto& [sig_y, y] = parallel_entries[i];
    EXPECT_EQ(sig_x, sig_y);
    EXPECT_EQ(x.bitstream.bytes, y.bitstream.bytes);
    EXPECT_EQ(x.bitstream.crc32, y.bitstream.crc32);
    EXPECT_EQ(x.hw_cycles, y.hw_cycles);
    EXPECT_EQ(x.critical_path_ns, y.critical_path_ns);
    EXPECT_EQ(x.area_slices, y.area_slices);
    EXPECT_EQ(x.cells, y.cells);
    EXPECT_EQ(x.generation_seconds, y.generation_seconds);
  }
}

TEST_P(Pipeline, EstimateCacheIsBitIdenticalAndHitsOnReuse) {
  // Differential check per app: whole-candidate estimation memoized by
  // candidate signature must be invisible in the output — estimates are pure
  // functions of candidate structure, so the memo can only change *when*
  // they are computed, never their values.
  const apps::App app = apps::build_app(GetParam());
  const auto profile = profile_of(app);
  jit::SpecializerConfig config;

  const auto plain = jit::specialize(app.module, profile, config);
  estimation::EstimateCache estimates;
  const auto memoized = jit::specialize(app.module, profile, config,
                                        /*cache=*/nullptr, &estimates);

  EXPECT_EQ(plain.candidates_found, memoized.candidates_found);
  EXPECT_EQ(plain.candidates_selected, memoized.candidates_selected);
  EXPECT_DOUBLE_EQ(plain.predicted_speedup, memoized.predicted_speedup);
  ASSERT_EQ(plain.implemented.size(), memoized.implemented.size());
  for (std::size_t i = 0; i < plain.implemented.size(); ++i) {
    EXPECT_EQ(plain.implemented[i].name, memoized.implemented[i].name);
    EXPECT_EQ(plain.implemented[i].signature, memoized.implemented[i].signature);
    EXPECT_EQ(plain.implemented[i].hw_cycles, memoized.implemented[i].hw_cycles);
    EXPECT_DOUBLE_EQ(plain.implemented[i].area_slices,
                     memoized.implemented[i].area_slices);
  }
  EXPECT_DOUBLE_EQ(plain.sum_total_s, memoized.sum_total_s);

  // First run populated the memo (one entry per distinct signature); a
  // second run over the same module hits for every candidate and still
  // produces the identical result.
  EXPECT_GT(estimates.entries(), 0u);
  const std::uint64_t misses_before = estimates.misses();
  const auto warm = jit::specialize(app.module, profile, config,
                                    /*cache=*/nullptr, &estimates);
  EXPECT_EQ(estimates.misses(), misses_before);
  EXPECT_GT(estimates.hits(), 0u);
  ASSERT_EQ(warm.implemented.size(), plain.implemented.size());
  for (std::size_t i = 0; i < plain.implemented.size(); ++i)
    EXPECT_EQ(warm.implemented[i].signature, plain.implemented[i].signature);
  EXPECT_DOUBLE_EQ(warm.predicted_speedup, plain.predicted_speedup);
}

// --- selection solver cross-check on random knapsack instances ------------

class SelectionProperty : public ::testing::TestWithParam<std::uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, SelectionProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST_P(SelectionProperty, KnapsackNeverWorseThanGreedyAndBothFeasible) {
  support::Xoshiro256 rng(GetParam());
  std::vector<ise::ScoredCandidate> cands(8 + rng.below(12));
  for (auto& sc : cands) {
    sc.cycles_saved_total = 1.0 + static_cast<double>(rng.below(1000));
    sc.area_slices = 1.0 + static_cast<double>(rng.below(400));
    sc.candidate.outputs.push_back(0);
  }
  ise::SelectConfig config;
  config.area_budget_slices = 300 + static_cast<double>(rng.below(700));

  const auto greedy = ise::select_greedy(cands, config);
  const auto exact = ise::select_knapsack(cands, config, 1.0);
  EXPECT_LE(greedy.total_area, config.area_budget_slices);
  EXPECT_LE(exact.total_area, config.area_budget_slices + 1e-9);
  EXPECT_LE(greedy.chosen.size(), config.max_instructions);
  EXPECT_GE(exact.total_saving, greedy.total_saving - 1e-9)
      << "DP must never lose to the greedy heuristic";

  // Exhaustive oracle for small instances.
  if (cands.size() <= 14) {
    double best = 0.0;
    for (std::uint32_t mask = 0; mask < (1u << cands.size()); ++mask) {
      double area = 0.0, saving = 0.0;
      for (std::size_t i = 0; i < cands.size(); ++i)
        if (mask & (1u << i)) {
          area += cands[i].area_slices;
          saving += cands[i].cycles_saved_total;
        }
      if (area <= config.area_budget_slices &&
          __builtin_popcount(mask) <=
              static_cast<int>(config.max_instructions))
        best = std::max(best, saving);
    }
    EXPECT_NEAR(exact.total_saving, best, best * 1e-12 + 1e-9)
        << "knapsack must match the exhaustive optimum";
  }
}

// --- anytime ISEGEN acceptance on real application pools ------------------

/// Probe-established operating points where the area/slot budgets genuinely
/// bind: greedy's density order leaves measurable saving on the table and the
/// exact two-constraint knapsack marks the attainable optimum.
struct IsegenCase {
  const char* app;
  double area_frac;  // area budget as a fraction of the *eligible* pool area
  std::size_t slots;
};

TEST(IsegenAcceptance, BeatsGreedyAndReachesKnapsackOnRealApps) {
  static constexpr IsegenCase kCases[] = {
      {"183.equake", 0.25, 2}, {"444.namd", 0.10, 4}, {"whetstone", 0.20, 4},
      {"sor", 0.50, 4},        {"433.milc", 0.20, 2}};
  int strictly_better = 0, matches_knapsack = 0;
  for (const IsegenCase& c : kCases) {
    const apps::App app = apps::build_app(c.app);
    vm::Machine machine(app.module);
    machine.run(app.entry, app.datasets[0].args, 1ull << 30);
    jit::SpecializerConfig cfg;
    cfg.implement_hardware = false;
    hwlib::CircuitDb db;
    jit::ObserverList observers;
    const jit::SearchArtifact art = jit::CandidateSearchStage(cfg).run(
        app.module, machine.profile(), db, observers);

    ise::SelectConfig unconstrained;
    unconstrained.area_budget_slices = 1e18;
    double pool_area = 0.0;
    for (const auto& sc : art.scored)
      if (ise::selection_eligible(sc, unconstrained))
        pool_area += sc.area_slices;
    ASSERT_GT(pool_area, 0.0) << c.app;

    ise::SelectConfig select;
    select.area_budget_slices = pool_area * c.area_frac;
    select.max_instructions = c.slots;
    const auto greedy = ise::select_greedy(art.scored, select);
    const auto knapsack = ise::select_knapsack(art.scored, select, 1.0);

    ise::IsegenConfig generous;
    generous.max_iterations = 20000;
    ise::IsegenStats stats;
    const auto refined =
        ise::select_isegen(art.scored, select, generous, {}, &stats);

    // Contracts that hold on every pool.
    EXPECT_GE(refined.total_saving, greedy.total_saving) << c.app;
    EXPECT_LE(refined.total_area, select.area_budget_slices + 1e-9) << c.app;
    EXPECT_LE(refined.chosen.size(), c.slots) << c.app;

    // Budget 0 stays bit-identical to the greedy seed.
    ise::IsegenConfig zero;
    zero.max_iterations = 0;
    const auto seed = ise::select_isegen(art.scored, select, zero);
    EXPECT_EQ(seed.chosen, greedy.chosen) << c.app;
    EXPECT_DOUBLE_EQ(seed.total_saving, greedy.total_saving) << c.app;

    if (refined.total_saving > greedy.total_saving * (1.0 + 1e-12))
      ++strictly_better;
    if (refined.total_saving >= knapsack.total_saving - 1e-9)
      ++matches_knapsack;
  }
  // The headline acceptance numbers: a generous budget strictly improves the
  // application-level saving on most pools and reaches the exact knapsack
  // optimum on at least one.
  EXPECT_GE(strictly_better, 3);
  EXPECT_GE(matches_knapsack, 1);
}

TEST(IsegenAcceptance, EndToEndSelectorIsDeterministicAcrossJobs) {
  // selector = Isegen through jit::specialize itself: refinement stats reach
  // the result, and the fixed-iteration walk is bit-identical across `jobs`
  // values.
  const apps::App app = apps::build_app("whetstone");
  vm::Machine machine(app.module);
  machine.run(app.entry, app.datasets[0].args, 1ull << 30);

  jit::SpecializerConfig cfg;
  cfg.implement_hardware = false;
  cfg.selector = jit::SpecializerConfig::Selector::Isegen;
  cfg.select.area_budget_slices = 1450.0;  // ~20% of the eligible pool
  cfg.select.max_instructions = 4;
  cfg.jobs = 1;

  const auto serial = jit::specialize(app.module, machine.profile(), cfg);
  jit::SpecializerConfig par = cfg;
  par.jobs = 4;
  const auto parallel = jit::specialize(app.module, machine.profile(), par);

  EXPECT_GT(serial.isegen.iterations, 0u);
  EXPECT_GE(serial.isegen.best_saving, serial.isegen.seed_saving);
  EXPECT_EQ(serial.candidates_selected, parallel.candidates_selected);
  EXPECT_EQ(serial.isegen.iterations, parallel.isegen.iterations);
  EXPECT_EQ(serial.isegen.accepted, parallel.isegen.accepted);
  EXPECT_DOUBLE_EQ(serial.isegen.best_saving, parallel.isegen.best_saving);
  EXPECT_DOUBLE_EQ(serial.predicted_speedup, parallel.predicted_speedup);
}

}  // namespace
