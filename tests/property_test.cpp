// Property-based tests over randomly generated programs — and, for the
// structural DFG invariants, over every registered application module:
// every pipeline transformation must preserve semantics, and every
// serialization must round-trip. Seeds sweep via TEST_P.
#include <gtest/gtest.h>

#include "apps/app.hpp"
#include "dfg/graph.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "support/rng.hpp"
#include "ir/verifier.hpp"
#include "ise/identify.hpp"
#include "ise/isegen.hpp"
#include "jit/pipeline.hpp"
#include "jit/specializer.hpp"
#include "random_program_fixture.hpp"
#include "vm/interpreter.hpp"
#include "woolcano/asip.hpp"

namespace {

using namespace jitise;

using jitise::testing::RandomProgram;

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgram,
                         ::testing::Range<std::uint64_t>(1, 41));

TEST_P(RandomProgram, GeneratesVerifiedModules) {
  const ir::Module m = generate();
  EXPECT_TRUE(ir::verify_module(m).empty());
  EXPECT_GT(m.total_instructions(), 10u);
}

TEST_P(RandomProgram, TextRoundTripPreservesEverything) {
  const ir::Module m = generate();
  const std::string text = ir::print_module(m);
  const ir::Module reparsed = ir::parse_module(text);
  ir::verify_module_or_throw(reparsed);
  EXPECT_EQ(ir::print_module(reparsed), text);

  // Differential execution: identical results and identical block profiles.
  for (std::int64_t arg : {0, 7, -3, 100000}) {
    vm::Machine m1(m), m2(reparsed);
    const vm::Slot args[] = {vm::Slot::of_int(arg)};
    const auto r1 = m1.run("main", args, 1ull << 26);
    const auto r2 = m2.run("main", args, 1ull << 26);
    EXPECT_EQ(r1.ret.i, r2.ret.i) << "arg=" << arg;
    EXPECT_EQ(r1.steps, r2.steps);
    EXPECT_EQ(m1.profile().block_counts, m2.profile().block_counts);
  }
}

TEST_P(RandomProgram, ExecutionIsDeterministic) {
  const ir::Module m = generate();
  vm::Machine m1(m), m2(m);
  const vm::Slot args[] = {vm::Slot::of_int(42)};
  EXPECT_EQ(m1.run("main", args, 1ull << 26).ret.i,
            m2.run("main", args, 1ull << 26).ret.i);
}

TEST_P(RandomProgram, SpecializationPreservesSemantics) {
  const ir::Module m = generate();
  vm::Machine machine(m);
  const vm::Slot args[] = {vm::Slot::of_int(1234)};
  machine.run("main", args, 1ull << 26);

  jit::SpecializerConfig config;
  config.implement_hardware = false;  // estimation path: fast, still rewrites
  config.select.min_saving = 0.0;     // splice even marginal candidates
  const auto spec = jit::specialize(m, machine.profile(), config);
  ir::verify_module_or_throw(spec.rewritten);

  for (std::int64_t arg : {0, 5, 999, -77}) {
    const vm::Slot a[] = {vm::Slot::of_int(arg)};
    const auto diff =
        woolcano::run_adapted(m, spec.rewritten, spec.registry, "main", a);
    EXPECT_EQ(diff.original_result.i, diff.adapted_result.i)
        << "seed=" << GetParam() << " arg=" << arg;
  }
}

TEST_P(RandomProgram, MaxMisoPartitionInvariants) {
  const ir::Module m = generate();
  for (const ir::Function& fn : m.functions) {
    for (ir::BlockId b = 0; b < fn.blocks.size(); ++b) {
      const dfg::BlockDfg graph(fn, b);
      const auto misos = ise::find_max_misos(graph);
      std::vector<bool> covered(graph.size(), false);
      std::size_t total = 0;
      for (const auto& cand : misos) {
        EXPECT_LE(cand.outputs.size(), 1u);
        std::vector<bool> in_set(graph.size(), false);
        for (dfg::NodeId n : cand.nodes) {
          EXPECT_TRUE(graph.feasible(n));
          EXPECT_FALSE(covered[n]) << "node in two MaxMISOs";
          covered[n] = true;
          in_set[n] = true;
          ++total;
        }
        EXPECT_TRUE(graph.is_convex(in_set));
      }
      EXPECT_EQ(total, graph.feasible_count());
    }
  }
}

// The same partition invariants over the real application registry: random
// programs never emit the irregular shapes the micro suite is built from
// (data-dependent loop exits, probe chains, self-recursion), so the MAXMISO
// partition must additionally be checked against every registered module.
class AppProgram : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(Registry, AppProgram,
                         ::testing::ValuesIn(apps::app_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n)
                             if (c == '.') c = '_';
                           return n;
                         });

TEST_P(AppProgram, MaxMisoPartitionInvariantsOnRealModules) {
  const apps::App app = apps::build_app(GetParam());
  for (const ir::Function& fn : app.module.functions) {
    for (ir::BlockId b = 0; b < fn.blocks.size(); ++b) {
      const dfg::BlockDfg graph(fn, b);
      const auto misos = ise::find_max_misos(graph);
      std::vector<bool> covered(graph.size(), false);
      std::size_t total = 0;
      for (const auto& cand : misos) {
        EXPECT_LE(cand.outputs.size(), 1u);
        std::vector<bool> in_set(graph.size(), false);
        for (dfg::NodeId n : cand.nodes) {
          EXPECT_TRUE(graph.feasible(n));
          EXPECT_FALSE(covered[n]) << "node in two MaxMISOs";
          covered[n] = true;
          in_set[n] = true;
          ++total;
        }
        EXPECT_TRUE(graph.is_convex(in_set));
      }
      EXPECT_EQ(total, graph.feasible_count())
          << GetParam() << " fn " << fn.name << " block " << b;
    }
  }
}

TEST_P(RandomProgram, AnytimeSelectionMonotoneInBudget) {
  // The anytime contracts over real (randomly generated) candidate pools:
  // budget 0 is bit-identical to select_greedy, larger iteration budgets
  // never return a smaller total_saving, and every point respects the
  // (deliberately binding) area and slot budgets.
  const ir::Module m = generate();
  vm::Machine machine(m);
  const vm::Slot args[] = {vm::Slot::of_int(1234)};
  machine.run("main", args, 1ull << 26);

  jit::SpecializerConfig config;
  config.implement_hardware = false;
  hwlib::CircuitDb db;
  jit::ObserverList observers;
  const jit::SearchArtifact art =
      jit::CandidateSearchStage(config).run(m, machine.profile(), db, observers);
  if (art.scored.empty()) GTEST_SKIP() << "no candidates for this seed";

  ise::SelectConfig unconstrained;
  unconstrained.area_budget_slices = 1e18;
  unconstrained.min_saving = 0.0;
  double pool_area = 0.0;
  for (const auto& sc : art.scored)
    if (ise::selection_eligible(sc, unconstrained)) pool_area += sc.area_slices;

  ise::SelectConfig select;
  select.min_saving = 0.0;
  select.area_budget_slices = std::max(1.0, pool_area * 0.3);
  select.max_instructions = 3;
  const auto greedy = ise::select_greedy(art.scored, select);

  double prev = -1.0;
  for (const std::size_t budget : {0, 8, 32, 128, 512}) {
    ise::IsegenConfig ic;
    ic.max_iterations = budget;
    ise::IsegenStats stats;
    const auto sel = ise::select_isegen(art.scored, select, ic, {}, &stats);
    EXPECT_GE(sel.total_saving, prev) << "budget " << budget;
    EXPECT_GE(sel.total_saving, greedy.total_saving) << "budget " << budget;
    EXPECT_LE(sel.total_area, select.area_budget_slices + 1e-9);
    EXPECT_LE(sel.chosen.size(), select.max_instructions);
    if (budget == 0) {
      EXPECT_EQ(sel.chosen, greedy.chosen);
      EXPECT_DOUBLE_EQ(sel.total_saving, greedy.total_saving);
      EXPECT_DOUBLE_EQ(sel.total_area, greedy.total_area);
      EXPECT_EQ(stats.iterations, 0u);
    }
    prev = sel.total_saving;
  }
}

TEST_P(RandomProgram, ParserSurvivesMutation) {
  // Robustness fuzz: randomly mutate the printed text. The parser must
  // either reject with ParseError or produce a module — never crash or
  // hang (memory safety is exercised by running under the test harness).
  const ir::Module m = generate();
  const std::string text = ir::print_module(m);
  support::Xoshiro256 rng(GetParam() * 7919 + 13);
  for (int trial = 0; trial < 25; ++trial) {
    std::string mutated = text;
    const int edits = 1 + static_cast<int>(rng.below(4));
    for (int e = 0; e < edits; ++e) {
      const std::size_t pos = rng.below(mutated.size());
      switch (rng.below(3)) {
        case 0:
          mutated[pos] = static_cast<char>('!' + rng.below(90));
          break;
        case 1:
          mutated.erase(pos, 1 + rng.below(4));
          break;
        default:
          mutated.insert(pos, 1, static_cast<char>('0' + rng.below(10)));
          break;
      }
      if (mutated.empty()) mutated = "x";
    }
    try {
      const ir::Module parsed = ir::parse_module(mutated);
      // If it parsed, it must be printable without crashing; the verifier
      // may legitimately reject it.
      (void)ir::print_module(parsed);
      (void)ir::verify_module(parsed);
    } catch (const std::exception&) {
      // ParseError (or another thrown exception) is the expected rejection
      // path for most mutations.
    }
  }
}

}  // namespace
