#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>

#include "dfg/graph.hpp"
#include "ir/builder.hpp"
#include "ir/random_program.hpp"
#include "ir/verifier.hpp"
#include "ise/candidate.hpp"
#include "ise/identify.hpp"
#include "ise/isegen.hpp"
#include "ise/pruning.hpp"
#include "ise/selection.hpp"
#include "random_program_fixture.hpp"
#include "vm/interpreter.hpp"

#include <limits>

namespace {

using namespace jitise;
using namespace jitise::ir;

/// One block mixing feasible arithmetic with infeasible memory ops:
///   l1 = load p; l2 = load q;
///   x1 = l1 + l2; x2 = l1 - l2; x3 = x1 * x2;
///   x4 = x3 & l1; x5 = x3 | l2;
///   store x4, p; ret x5
Module make_expr_module() {
  Module m;
  m.name = "expr";
  FunctionBuilder fb(m, "f", Type::I32, {Type::Ptr, Type::Ptr});
  const ValueId l1 = fb.load(Type::I32, fb.param(0));
  const ValueId l2 = fb.load(Type::I32, fb.param(1));
  const ValueId x1 = fb.binop(Opcode::Add, l1, l2);
  const ValueId x2 = fb.binop(Opcode::Sub, l1, l2);
  const ValueId x3 = fb.binop(Opcode::Mul, x1, x2);
  const ValueId x4 = fb.binop(Opcode::And, x3, l1);
  const ValueId x5 = fb.binop(Opcode::Or, x3, l2);
  fb.store(x4, fb.param(0));
  fb.ret(x5);
  fb.finish();
  verify_module_or_throw(m);
  return m;
}

TEST(BlockDfg, EdgesAndFeasibility) {
  const Module m = make_expr_module();
  const dfg::BlockDfg g(m.functions[0], 0);
  ASSERT_EQ(g.size(), 9u);  // 2 loads, 5 alu, store, ret
  // Node order: l1 l2 x1 x2 x3 x4 x5 store ret.
  EXPECT_FALSE(g.feasible(0));  // load
  EXPECT_FALSE(g.feasible(1));
  for (dfg::NodeId n = 2; n <= 6; ++n) EXPECT_TRUE(g.feasible(n)) << n;
  EXPECT_FALSE(g.feasible(7));  // store
  EXPECT_FALSE(g.feasible(8));  // ret

  // x3 (node 4) consumes x1 (2) and x2 (3), feeds x4 (5) and x5 (6).
  EXPECT_EQ(std::vector<dfg::NodeId>(g.preds(4).begin(), g.preds(4).end()),
            (std::vector<dfg::NodeId>{2, 3}));
  EXPECT_EQ(std::vector<dfg::NodeId>(g.succs(4).begin(), g.succs(4).end()),
            (std::vector<dfg::NodeId>{5, 6}));
  EXPECT_FALSE(g.used_outside(4));
}

TEST(BlockDfg, ConvexityCheck) {
  const Module m = make_expr_module();
  const dfg::BlockDfg g(m.functions[0], 0);
  // {x1, x2, x3} is convex.
  std::vector<bool> s(g.size(), false);
  s[2] = s[3] = s[4] = true;
  EXPECT_TRUE(g.is_convex(s));
  // {x1, x4}: path x1 -> x3 -> x4 leaves and re-enters: non-convex.
  std::fill(s.begin(), s.end(), false);
  s[2] = s[5] = true;
  EXPECT_FALSE(g.is_convex(s));
  // {x1, x3, x4}: x3's pred x2 is outside, but no path from inside through
  // x2 back inside: convex.
  std::fill(s.begin(), s.end(), false);
  s[2] = s[4] = s[5] = true;
  EXPECT_TRUE(g.is_convex(s));
}

TEST(MaxMiso, PartitionProperties) {
  const Module m = make_expr_module();
  const dfg::BlockDfg g(m.functions[0], 0);
  const auto misos = ise::find_max_misos(g);

  // Every feasible node in exactly one candidate.
  std::set<dfg::NodeId> seen;
  for (const auto& c : misos)
    for (dfg::NodeId n : c.nodes) {
      EXPECT_TRUE(g.feasible(n));
      EXPECT_TRUE(seen.insert(n).second) << "node in two MaxMISOs";
    }
  EXPECT_EQ(seen.size(), g.feasible_count());

  for (const auto& c : misos) {
    EXPECT_LE(c.outputs.size(), 1u);
    std::vector<bool> in_set(g.size(), false);
    for (dfg::NodeId n : c.nodes) in_set[n] = true;
    EXPECT_TRUE(g.is_convex(in_set));
  }

  // For this graph: x3 has two consumers, so {x1,x2,x3} form one MaxMISO?
  // No: x1 and x2 each have a single consumer x3, x3 has 2 feasible
  // consumers -> x3 is a root with x1, x2 merged in; x4 and x5 escape ->
  // their own roots. Expect exactly 3 MaxMISOs with sizes {3,1,1}.
  ASSERT_EQ(misos.size(), 3u);
  std::multiset<std::size_t> sizes;
  for (const auto& c : misos) sizes.insert(c.size());
  EXPECT_EQ(sizes, (std::multiset<std::size_t>{1, 1, 3}));
}

TEST(MaxMiso, InputsComputed) {
  const Module m = make_expr_module();
  const dfg::BlockDfg g(m.functions[0], 0);
  const auto misos = ise::find_max_misos(g);
  const auto big = std::find_if(misos.begin(), misos.end(),
                                [](const auto& c) { return c.size() == 3; });
  ASSERT_NE(big, misos.end());
  // {x1,x2,x3} reads l1 and l2 from outside.
  EXPECT_EQ(big->inputs.size(), 2u);
  ASSERT_EQ(big->outputs.size(), 1u);
}

TEST(MisoEnum, NoDuplicatesAndValid) {
  const Module m = make_expr_module();
  const dfg::BlockDfg g(m.functions[0], 0);
  ise::MisoEnumConfig cfg;
  cfg.min_size = 1;
  const auto result = ise::enumerate_misos(g, cfg);
  EXPECT_FALSE(result.truncated);

  std::set<std::vector<dfg::NodeId>> unique;
  for (const auto& c : result.candidates) {
    EXPECT_TRUE(unique.insert(c.nodes).second) << "duplicate candidate";
    EXPECT_LE(c.outputs.size(), 1u);
    std::vector<bool> in_set(g.size(), false);
    for (dfg::NodeId n : c.nodes) in_set[n] = true;
    EXPECT_TRUE(g.is_convex(in_set));
  }
  // MISOs of this graph: {x1},{x2},{x4},{x5},{x3,x1,x2},{x3,x1},{x3,x2},{x3}
  // — x3 alone or with any subset of its single-use preds; x4/x5 escape.
  EXPECT_EQ(result.candidates.size(), 8u);
}


TEST(UnionMiso, MergesMultiUserChains) {
  // a = p0 + p1; b = a + 1; c = a + 2; d = b * c; store d.
  // MAXMISO: a is a root (two users), {b, c, d} one group -> 2 candidates.
  // Union-MISO: both of a's users are in d's group -> single 4-op candidate.
  Module m;
  FunctionBuilder fb(m, "f", Type::I32, {Type::I32, Type::I32, Type::Ptr});
  const ValueId a = fb.binop(Opcode::Add, fb.param(0), fb.param(1));
  const ValueId b = fb.binop(Opcode::Add, a, fb.const_int(Type::I32, 1));
  const ValueId c = fb.binop(Opcode::Add, a, fb.const_int(Type::I32, 2));
  const ValueId d = fb.binop(Opcode::Mul, b, c);
  fb.store(d, fb.param(2));
  fb.ret(d);
  fb.finish();
  const dfg::BlockDfg g(m.functions[0], 0);

  const auto misos = ise::find_max_misos(g);
  EXPECT_EQ(misos.size(), 2u);
  const auto unions = ise::find_union_misos(g);
  ASSERT_EQ(unions.size(), 1u);
  EXPECT_EQ(unions[0].size(), 4u);
  EXPECT_EQ(unions[0].outputs.size(), 1u);
  std::vector<bool> in_set(g.size(), false);
  for (dfg::NodeId n : unions[0].nodes) in_set[n] = true;
  EXPECT_TRUE(g.is_convex(in_set));
}

TEST(UnionMiso, DoesNotMergeAcrossEscapes) {
  // The expr fixture: x3 feeds two *different* groups (x4 and x5 escape
  // separately), so no merge is possible and union == MAXMISO.
  const Module m = make_expr_module();
  const dfg::BlockDfg g(m.functions[0], 0);
  const auto misos = ise::find_max_misos(g);
  const auto unions = ise::find_union_misos(g);
  EXPECT_EQ(unions.size(), misos.size());
}

TEST(UnionMiso, PartitionInvariantsOnRandomPrograms) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    ir::RandomProgramConfig config;
    config.seed = seed * 31;
    const Module m = ir::generate_random_program(config);
    for (const Function& fn : m.functions) {
      for (BlockId b = 0; b < fn.blocks.size(); ++b) {
        const dfg::BlockDfg g(fn, b);
        const auto unions = ise::find_union_misos(g);
        std::set<dfg::NodeId> seen;
        std::size_t covered = 0;
        for (const auto& cand : unions) {
          EXPECT_LE(cand.outputs.size(), 1u);
          std::vector<bool> in_set(g.size(), false);
          for (dfg::NodeId n : cand.nodes) {
            EXPECT_TRUE(g.feasible(n));
            EXPECT_TRUE(seen.insert(n).second);
            in_set[n] = true;
            ++covered;
          }
          EXPECT_TRUE(g.is_convex(in_set));
        }
        EXPECT_EQ(covered, g.feasible_count());
        // Union-MISO never produces more candidates than MAXMISO.
        EXPECT_LE(unions.size(), ise::find_max_misos(g).size());
      }
    }
  }
}

/// Brute-force reference: all subsets of feasible nodes that are convex,
/// with inputs <= max_in and outputs <= max_out and size >= min_size.
std::size_t brute_force_count(const dfg::BlockDfg& g, unsigned max_in,
                              unsigned max_out, std::size_t min_size) {
  const std::size_t n = g.size();
  std::size_t count = 0;
  for (std::uint64_t mask = 1; mask < (1ull << n); ++mask) {
    std::vector<dfg::NodeId> nodes;
    bool ok = true;
    for (std::size_t i = 0; i < n; ++i)
      if (mask & (1ull << i)) {
        if (!g.feasible(static_cast<dfg::NodeId>(i))) {
          ok = false;
          break;
        }
        nodes.push_back(static_cast<dfg::NodeId>(i));
      }
    if (!ok || nodes.size() < min_size) continue;
    std::vector<bool> in_set(n, false);
    for (dfg::NodeId i : nodes) in_set[i] = true;
    if (!g.is_convex(in_set)) continue;
    ise::Candidate c;
    c.block = g.block();
    c.nodes = nodes;
    ise::compute_io(g, c);
    if (c.inputs.size() <= max_in && c.outputs.size() <= max_out) ++count;
  }
  return count;
}

TEST(ExactEnum, MatchesBruteForce) {
  const Module m = make_expr_module();
  const dfg::BlockDfg g(m.functions[0], 0);
  for (unsigned max_in : {2u, 3u, 4u}) {
    for (unsigned max_out : {1u, 2u}) {
      ise::ExactEnumConfig cfg;
      cfg.max_inputs = max_in;
      cfg.max_outputs = max_out;
      cfg.min_size = 1;
      const auto result = ise::enumerate_exact(g, cfg);
      EXPECT_FALSE(result.truncated);
      EXPECT_EQ(result.candidates.size(),
                brute_force_count(g, max_in, max_out, 1))
          << "max_in=" << max_in << " max_out=" << max_out;
      for (const auto& c : result.candidates) {
        EXPECT_LE(c.inputs.size(), max_in);
        EXPECT_LE(c.outputs.size(), max_out);
      }
    }
  }
}

TEST(ExactEnum, RespectsBudget) {
  const Module m = make_expr_module();
  const dfg::BlockDfg g(m.functions[0], 0);
  ise::ExactEnumConfig cfg;
  cfg.max_steps = 5;
  const auto result = ise::enumerate_exact(g, cfg);
  EXPECT_TRUE(result.truncated);
  EXPECT_LE(result.steps, 6u);
}

// Exact enumeration is exponential, so its random-program sweep runs on the
// first ten seeds only; property_test sweeps its cheaper checks over 40.
using jitise::testing::RandomProgram;

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgram,
                         ::testing::Range<std::uint64_t>(1, 11));

TEST_P(RandomProgram, ExactEnumRespectsConstraintsEverywhere) {
  const ir::Module m = generate();
  ise::ExactEnumConfig config;
  config.max_steps = 1u << 16;
  for (const ir::Function& fn : m.functions) {
    for (ir::BlockId b = 0; b < fn.blocks.size(); ++b) {
      const dfg::BlockDfg graph(fn, b);
      if (graph.size() > 24) continue;
      const auto result = ise::enumerate_exact(graph, config);
      for (const auto& cand : result.candidates) {
        EXPECT_LE(cand.inputs.size(), config.max_inputs);
        EXPECT_LE(cand.outputs.size(), config.max_outputs);
        std::vector<bool> in_set(graph.size(), false);
        for (dfg::NodeId n : cand.nodes) in_set[n] = true;
        EXPECT_TRUE(graph.is_convex(in_set));
      }
    }
  }
}

TEST(Signature, StructuralEquality) {
  // Two modules with the same expression in different surroundings must
  // produce the same signature for the common candidate.
  auto build = [](bool extra) {
    Module m;
    m.name = extra ? "a" : "b";
    FunctionBuilder fb(m, "f", Type::I32, {Type::I32, Type::I32});
    if (extra) fb.binop(Opcode::Xor, fb.param(0), fb.param(1));
    const ValueId s = fb.binop(Opcode::Add, fb.param(0), fb.param(1));
    const ValueId t = fb.binop(Opcode::Mul, s, fb.param(0));
    fb.ret(t);
    fb.finish();
    return m;
  };
  const Module m1 = build(false);
  const Module m2 = build(true);
  const dfg::BlockDfg g1(m1.functions[0], 0);
  const dfg::BlockDfg g2(m2.functions[0], 0);

  auto find_addmul = [](const dfg::BlockDfg& g) {
    for (const auto& c : ise::find_max_misos(g))
      if (c.size() == 2) return c;
    throw std::runtime_error("no add+mul candidate");
  };
  const auto c1 = find_addmul(g1);
  const auto c2 = find_addmul(g2);
  EXPECT_EQ(ise::candidate_signature(g1, c1), ise::candidate_signature(g2, c2));

  // A structurally different candidate (sub instead of add) differs.
  Module m3;
  {
    FunctionBuilder fb(m3, "f", Type::I32, {Type::I32, Type::I32});
    const ValueId s = fb.binop(Opcode::Sub, fb.param(0), fb.param(1));
    const ValueId t = fb.binop(Opcode::Mul, s, fb.param(0));
    fb.ret(t);
    fb.finish();
  }
  const dfg::BlockDfg g3(m3.functions[0], 0);
  const auto c3 = find_addmul(g3);
  EXPECT_NE(ise::candidate_signature(g1, c1), ise::candidate_signature(g3, c3));
}

TEST(Signature, ConstantLiteralsMatter) {
  auto build = [](int k) {
    Module m;
    FunctionBuilder fb(m, "f", Type::I32, {Type::I32});
    const ValueId s = fb.binop(Opcode::Mul, fb.param(0), fb.const_int(Type::I32, k));
    const ValueId t = fb.binop(Opcode::Add, s, fb.param(0));
    fb.ret(t);
    fb.finish();
    return m;
  };
  const Module m1 = build(3), m2 = build(5);
  const dfg::BlockDfg g1(m1.functions[0], 0), g2(m2.functions[0], 0);
  const auto c1 = ise::find_max_misos(g1), c2 = ise::find_max_misos(g2);
  ASSERT_EQ(c1.size(), 1u);
  ASSERT_EQ(c2.size(), 1u);
  EXPECT_NE(ise::candidate_signature(g1, c1[0]),
            ise::candidate_signature(g2, c2[0]));
}

/// Hot loop + cold prologue module for pruning tests.
Module make_hotcold_module() {
  Module m;
  m.name = "hotcold";
  FunctionBuilder fb(m, "f", Type::I32, {Type::I32});
  const BlockId cold = fb.new_block("cold");
  const BlockId hot = fb.new_block("hot");
  const BlockId exit = fb.new_block("exit");
  fb.br(cold);
  fb.set_insert(cold);
  // A couple of feasible ops, executed once.
  const ValueId c1 = fb.binop(Opcode::Add, fb.param(0), fb.const_int(Type::I32, 3));
  const ValueId c2 = fb.binop(Opcode::Mul, c1, c1);
  fb.br(hot);
  fb.set_insert(hot);
  const ValueId i = fb.phi(Type::I32);
  const ValueId acc = fb.phi(Type::I32);
  const ValueId t1 = fb.binop(Opcode::Mul, i, i);
  const ValueId t2 = fb.binop(Opcode::Add, t1, acc);
  const ValueId t3 = fb.binop(Opcode::Xor, t2, i);
  const ValueId inext = fb.binop(Opcode::Add, i, fb.const_int(Type::I32, 1));
  const ValueId cont = fb.icmp(ICmpPred::Slt, inext, fb.param(0));
  fb.condbr(cont, hot, exit);
  fb.phi_incoming(i, fb.const_int(Type::I32, 0), cold);
  fb.phi_incoming(i, inext, hot);
  fb.phi_incoming(acc, c2, cold);
  fb.phi_incoming(acc, t3, hot);
  fb.set_insert(exit);
  fb.ret(t3);
  fb.finish();
  verify_module_or_throw(m);
  return m;
}

TEST(Pruning, At50pS3LPicksHotBlock) {
  const Module m = make_hotcold_module();
  vm::Machine machine(m);
  const vm::Slot args[] = {vm::Slot::of_int(500)};
  machine.run("f", args);

  const auto result = ise::prune_blocks(m, machine.profile(),
                                        machine.cost_model(),
                                        ise::PruneConfig::at50pS3L());
  ASSERT_GE(result.blocks.size(), 1u);
  EXPECT_EQ(result.blocks[0].block, 2u);  // the hot loop body
  EXPECT_LE(result.blocks.size(), 3u);
  EXPECT_GE(result.covered_time_pct, 50.0);
  EXPECT_LT(result.passed_instructions, result.total_instructions);
}

TEST(Pruning, NoneKeepsAllExecutedBlocks) {
  const Module m = make_hotcold_module();
  vm::Machine machine(m);
  const vm::Slot args[] = {vm::Slot::of_int(50)};
  machine.run("f", args);
  const auto result = ise::prune_blocks(m, machine.profile(),
                                        machine.cost_model(),
                                        ise::PruneConfig::none());
  // All blocks with >= 0 feasible instructions and nonzero count pass;
  // entry/exit blocks have few instructions but min_feasible = 0 admits them.
  EXPECT_EQ(result.blocks.size(), 4u);
  EXPECT_NEAR(result.covered_time_pct, 100.0, 1e-9);
}

ise::ScoredCandidate scored(double saving, double area) {
  ise::ScoredCandidate sc;
  sc.cycles_saved_total = saving;
  sc.area_slices = area;
  sc.candidate.outputs.push_back(0);  // single output
  return sc;
}

TEST(Selection, GreedyRespectsBudgets) {
  std::vector<ise::ScoredCandidate> cands = {
      scored(100, 50), scored(90, 10), scored(80, 10), scored(5, 1),
      scored(0.5, 1),  // below min_saving
  };
  ise::SelectConfig cfg;
  cfg.area_budget_slices = 60;
  cfg.max_instructions = 3;
  const auto sel = ise::select_greedy(cands, cfg);
  EXPECT_LE(sel.total_area, 60.0);
  EXPECT_LE(sel.chosen.size(), 3u);
  // Density order: #1 (9), #2 (8), #3 (5), #0 (2) -> picks 1,2,3.
  EXPECT_EQ(sel.chosen, (std::vector<std::size_t>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sel.total_saving, 175.0);
}

TEST(Selection, KnapsackBeatsOrMatchesGreedy) {
  // Classic greedy trap: two medium items beat one dense item.
  std::vector<ise::ScoredCandidate> cands = {
      scored(60, 50), scored(59, 50), scored(62, 60),
  };
  ise::SelectConfig cfg;
  cfg.area_budget_slices = 100;
  const auto greedy = ise::select_greedy(cands, cfg);
  const auto exact = ise::select_knapsack(cands, cfg, 1.0);
  EXPECT_GE(exact.total_saving, greedy.total_saving);
  EXPECT_DOUBLE_EQ(exact.total_saving, 119.0);
  EXPECT_LE(exact.total_area, 100.0);
}

TEST(Selection, KnapsackBacktrackMatchesDpOptimum) {
  // The reconstructed set must match a brute-force optimum over the same
  // discretized weights on every instance: equal total saving, a chosen list
  // whose savings sum to total_saving, and total area within budget. (The
  // former rolling-array backtrack relied on stale-flag ordering subtleties;
  // the stage-indexed table is checked here instance-by-instance.)
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  const auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n = 3 + next() % 10;
    std::vector<ise::ScoredCandidate> cands;
    for (std::size_t i = 0; i < n; ++i)
      cands.push_back(scored(static_cast<double>(1 + next() % 40),
                             static_cast<double>(1 + next() % 12)));
    ise::SelectConfig cfg;
    cfg.area_budget_slices = static_cast<double>(4 + next() % 30);
    const auto sel = ise::select_knapsack(cands, cfg, 1.0);

    // Brute force with identical weights (integer areas, granularity 1).
    double best = 0.0;
    for (std::size_t mask = 0; mask < (std::size_t{1} << n); ++mask) {
      double saving = 0.0, area = 0.0;
      bool ok = true;
      for (std::size_t i = 0; i < n; ++i) {
        if (!(mask & (std::size_t{1} << i))) continue;
        if (cands[i].area_slices > cfg.area_budget_slices) ok = false;
        saving += cands[i].cycles_saved_total;
        area += cands[i].area_slices;
      }
      if (ok && area <= cfg.area_budget_slices) best = std::max(best, saving);
    }

    EXPECT_DOUBLE_EQ(sel.total_saving, best) << "trial " << trial;
    EXPECT_LE(sel.total_area, cfg.area_budget_slices) << "trial " << trial;
    double chosen_saving = 0.0;
    for (std::size_t i : sel.chosen) chosen_saving += cands[i].cycles_saved_total;
    EXPECT_DOUBLE_EQ(chosen_saving, sel.total_saving) << "trial " << trial;
  }
}

TEST(Selection, DropsMultiOutputCandidates) {
  ise::ScoredCandidate multi = scored(1000, 1);
  multi.candidate.outputs.push_back(1);  // now two outputs
  std::vector<ise::ScoredCandidate> cands = {multi, scored(10, 1)};
  const auto sel = ise::select_greedy(cands, {});
  EXPECT_EQ(sel.chosen, (std::vector<std::size_t>{1}));
}

TEST(Selection, DegenerateSavingsNeverSelected) {
  // Zero, negative, and NaN savings must be ineligible for every selector
  // even under min_saving = 0 — an unguarded density() would order a NaN
  // first and a negative-saving candidate could still pass `>= min_saving`.
  std::vector<ise::ScoredCandidate> cands = {
      scored(0.0, 1), scored(-50.0, 1),
      scored(std::numeric_limits<double>::quiet_NaN(), 1), scored(10.0, 1)};
  ise::SelectConfig cfg;
  cfg.min_saving = 0.0;
  EXPECT_FALSE(ise::selection_eligible(cands[0], cfg));
  EXPECT_FALSE(ise::selection_eligible(cands[1], cfg));
  EXPECT_FALSE(ise::selection_eligible(cands[2], cfg));
  EXPECT_TRUE(ise::selection_eligible(cands[3], cfg));
  EXPECT_EQ(ise::select_greedy(cands, cfg).chosen,
            (std::vector<std::size_t>{3}));
  EXPECT_EQ(ise::select_knapsack(cands, cfg, 1.0).chosen,
            (std::vector<std::size_t>{3}));
  EXPECT_EQ(ise::select_isegen(cands, cfg).chosen,
            (std::vector<std::size_t>{3}));
}

TEST(Selection, KnapsackSlotCapBindsStillOptimal) {
  // Regression: when the FCM slot cap binds, the old implementation threw
  // the DP answer away and fell back to greedy. Three tiny high-density
  // items plus one large high-saving one under a 2-slot cap: greedy (density
  // order) takes two tiny ones (19); the true two-slot optimum pairs the
  // large item with the best tiny one (25).
  std::vector<ise::ScoredCandidate> cands = {
      scored(10, 1), scored(9, 1), scored(8, 1), scored(15, 10)};
  ise::SelectConfig cfg;
  cfg.area_budget_slices = 1000;
  cfg.max_instructions = 2;
  const auto greedy = ise::select_greedy(cands, cfg);
  EXPECT_DOUBLE_EQ(greedy.total_saving, 19.0);
  const auto exact = ise::select_knapsack(cands, cfg, 1.0);
  EXPECT_EQ(exact.chosen, (std::vector<std::size_t>{0, 3}));
  EXPECT_DOUBLE_EQ(exact.total_saving, 25.0);
  EXPECT_LE(exact.chosen.size(), cfg.max_instructions);
}

TEST(Selection, KnapsackSlotCappedMatchesBruteForce) {
  // The two-constraint DP (area x slots) against brute force on instances
  // where the slot cap genuinely binds (1-4 slots over 3-12 items).
  std::uint64_t state = 0xA5F152ull;
  const auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n = 3 + next() % 10;
    std::vector<ise::ScoredCandidate> cands;
    for (std::size_t i = 0; i < n; ++i)
      cands.push_back(scored(static_cast<double>(1 + next() % 40),
                             static_cast<double>(1 + next() % 12)));
    ise::SelectConfig cfg;
    cfg.area_budget_slices = static_cast<double>(4 + next() % 30);
    cfg.max_instructions = 1 + next() % 4;
    const auto sel = ise::select_knapsack(cands, cfg, 1.0);

    double best = 0.0;
    for (std::size_t mask = 0; mask < (std::size_t{1} << n); ++mask) {
      double saving = 0.0, area = 0.0;
      std::size_t count = 0;
      bool ok = true;
      for (std::size_t i = 0; i < n; ++i) {
        if (!(mask & (std::size_t{1} << i))) continue;
        if (cands[i].area_slices > cfg.area_budget_slices) ok = false;
        saving += cands[i].cycles_saved_total;
        area += cands[i].area_slices;
        ++count;
      }
      if (ok && area <= cfg.area_budget_slices &&
          count <= cfg.max_instructions)
        best = std::max(best, saving);
    }

    EXPECT_DOUBLE_EQ(sel.total_saving, best) << "trial " << trial;
    EXPECT_LE(sel.chosen.size(), cfg.max_instructions) << "trial " << trial;
    EXPECT_LE(sel.total_area, cfg.area_budget_slices) << "trial " << trial;
  }
}

TEST(Isegen, BudgetZeroBitIdenticalToGreedy) {
  // max_iterations = 0 must return the greedy seed verbatim: same chosen
  // indices AND the same floating-point totals (greedy accumulates them in
  // density order; a re-sum in index order could differ in the last ulp).
  std::uint64_t state = 0xB15EED0ull;
  const auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<ise::ScoredCandidate> cands;
    const std::size_t n = 1 + next() % 20;
    for (std::size_t i = 0; i < n; ++i)
      cands.push_back(scored(static_cast<double>(next() % 1000) / 3.0,
                             static_cast<double>(1 + next() % 40)));
    ise::SelectConfig cfg;
    cfg.area_budget_slices = static_cast<double>(20 + next() % 200);
    cfg.max_instructions = 1 + next() % 8;
    ise::IsegenConfig ic;
    ic.max_iterations = 0;
    ise::IsegenStats stats;
    const auto refined = ise::select_isegen(cands, cfg, ic, {}, &stats);
    const auto greedy = ise::select_greedy(cands, cfg);
    EXPECT_EQ(refined.chosen, greedy.chosen) << "trial " << trial;
    EXPECT_DOUBLE_EQ(refined.total_saving, greedy.total_saving);
    EXPECT_DOUBLE_EQ(refined.total_area, greedy.total_area);
    EXPECT_EQ(stats.iterations, 0u);
    EXPECT_DOUBLE_EQ(stats.seed_saving, greedy.total_saving);
  }
}

TEST(Isegen, EscapesGreedyTrap) {
  // The classic density trap: one dense candidate (A) crowds out two medium
  // ones (B + C) that together beat it. The shrink-and-refill move removes A
  // and re-packs B and C in one compound step — no uphill walk needed.
  std::vector<ise::ScoredCandidate> cands = {
      scored(100, 60), scored(60, 50), scored(58, 50)};
  ise::SelectConfig cfg;
  cfg.area_budget_slices = 100;
  const auto greedy = ise::select_greedy(cands, cfg);
  EXPECT_DOUBLE_EQ(greedy.total_saving, 100.0);
  ise::IsegenStats stats;
  const auto refined = ise::select_isegen(cands, cfg, {}, {}, &stats);
  EXPECT_EQ(refined.chosen, (std::vector<std::size_t>{1, 2}));
  EXPECT_DOUBLE_EQ(refined.total_saving, 118.0);
  EXPECT_DOUBLE_EQ(stats.seed_saving, 100.0);
  EXPECT_DOUBLE_EQ(stats.best_saving, 118.0);
  EXPECT_GT(stats.accepted, 0u);
}

TEST(Isegen, RespectsBudgetsAndConflicts) {
  // Candidates sharing a DFG node of the same (function, block) must never
  // be chosen together, whatever the walk does; area and slot budgets must
  // hold on the result. Candidates 0 and 1 overlap on node 1 and are both
  // individually attractive; 0 also overlaps 2 via node 0.
  const auto with_nodes = [](double saving, double area,
                             std::vector<dfg::NodeId> nodes) {
    ise::ScoredCandidate sc = scored(saving, area);
    sc.candidate.nodes = std::move(nodes);
    return sc;
  };
  std::vector<ise::ScoredCandidate> cands = {
      with_nodes(100, 10, {0, 1}), with_nodes(90, 10, {1, 2}),
      with_nodes(80, 10, {0, 3}), with_nodes(70, 10, {4}),
      with_nodes(60, 10, {5}),    with_nodes(50, 10, {6})};
  for (const std::size_t slots : {1u, 2u, 3u, 6u}) {
    for (const double budget : {10.0, 20.0, 30.0, 60.0}) {
      ise::SelectConfig cfg;
      cfg.area_budget_slices = budget;
      cfg.max_instructions = slots;
      ise::IsegenConfig ic;
      ic.max_iterations = 2000;
      const auto sel = ise::select_isegen(cands, cfg, ic);
      EXPECT_LE(sel.chosen.size(), slots);
      EXPECT_LE(sel.total_area, budget + 1e-9);
      std::set<dfg::NodeId> used;
      for (const std::size_t i : sel.chosen) {
        for (const dfg::NodeId n : cands[i].candidate.nodes) {
          EXPECT_TRUE(used.insert(n).second)
              << "node " << n << " shared by two chosen candidates (slots "
              << slots << ", budget " << budget << ")";
        }
      }
    }
  }
}

TEST(Isegen, IncrementalDeltasMatchFullRescoring) {
  // Differential test of the incremental delta evaluator: after thousands of
  // accepted moves (including uphill ones), the incrementally maintained
  // current saving must still match a full re-sum, and the returned totals
  // must equal an index-order re-sum over the chosen set.
  std::uint64_t state = 0xD1FF5C0ull;
  const auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<ise::ScoredCandidate> cands;
    const std::size_t n = 10 + next() % 40;
    for (std::size_t i = 0; i < n; ++i)
      cands.push_back(scored(static_cast<double>(1 + next() % 5000) / 7.0,
                             static_cast<double>(1 + next() % 60)));
    ise::SelectConfig cfg;
    cfg.area_budget_slices = static_cast<double>(100 + next() % 400);
    cfg.max_instructions = 2 + next() % 10;
    ise::IsegenConfig ic;
    ic.max_iterations = 5000;
    ic.uphill_escapes = 64;
    ise::IsegenStats stats;
    const auto sel = ise::select_isegen(cands, cfg, ic, {}, &stats);
    EXPECT_LT(stats.incremental_drift, 1e-6) << "trial " << trial;
    double resum = 0.0, rearea = 0.0;
    for (const std::size_t i : sel.chosen) {
      resum += cands[i].cycles_saved_total;
      rearea += cands[i].area_slices;
    }
    EXPECT_DOUBLE_EQ(sel.total_saving, resum) << "trial " << trial;
    EXPECT_DOUBLE_EQ(sel.total_area, rearea) << "trial " << trial;
    EXPECT_GE(sel.total_saving, stats.seed_saving) << "trial " << trial;
  }
}

TEST(Isegen, CancellationReturnsBestSoFar) {
  // A pre-fired token stops the walk at the first batch boundary: the seed
  // comes back unchanged (never worse), flagged as budget-exhausted.
  std::vector<ise::ScoredCandidate> cands = {
      scored(100, 60), scored(60, 50), scored(58, 50)};
  ise::SelectConfig cfg;
  cfg.area_budget_slices = 100;
  support::CancellationSource source;
  source.cancel();
  ise::IsegenStats stats;
  const auto sel =
      ise::select_isegen(cands, cfg, {}, source.token(), &stats);
  const auto greedy = ise::select_greedy(cands, cfg);
  EXPECT_EQ(sel.chosen, greedy.chosen);
  EXPECT_DOUBLE_EQ(sel.total_saving, greedy.total_saving);
  EXPECT_TRUE(stats.budget_exhausted);
  EXPECT_EQ(stats.iterations, 0u);
}

}  // namespace
