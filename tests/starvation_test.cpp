// Candidate-starvation regression tests for the irregular SPECInt-micro
// suite. The classic embedded/scientific kernels all yield selected ISE
// candidates; the micro kernels were added precisely because their shapes —
// data-dependent loop exits, deep conditional chains, load/compare/branch
// mixes — break MAXMISO chains into fragments too small to pay for the
// hardware invocation. These tests pin, per kernel, whether the default
// pipeline finds at least one *selected* candidate or legitimately starves,
// so a silent regression in either direction (a search change that stops
// finding candidates, or an estimation change that starts selecting
// unprofitable ones) fails loudly.
//
// Expected counts were measured on the default configuration and carry a
// generous +/-2x tolerance on candidates *found* (sensitive to search
// heuristics); candidates *selected* is pinned tightly because selection is
// the semantic contract: a starved kernel must stay starved until someone
// deliberately changes the profitability model.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "ise/isegen.hpp"
#include "ise/selection.hpp"
#include "jit/pipeline.hpp"
#include "jit/specializer.hpp"

namespace {

using namespace jitise;

struct StarvationCase {
  const char* app;
  std::size_t found_min;      // candidates_found lower bound
  std::size_t found_max;      // candidates_found upper bound
  std::size_t selected_min;   // candidates_selected lower bound
  std::size_t selected_max;   // candidates_selected upper bound
};

// Measured with the default SpecializerConfig: every micro kernel finds a
// handful of MAXMISO candidates, but only game_tree (whose leaf evaluation
// is a straight-line multiply/xor/shift hash) clears the profitability bar.
constexpr StarvationCase kCases[] = {
    {"hash_lookup", 3, 14, 0, 0},   {"bwt_sort", 2, 10, 0, 0},
    {"huffman_tree", 3, 12, 0, 0},  {"tree_walk", 3, 12, 0, 0},
    {"viterbi_hmm", 2, 8, 0, 0},    {"astar_path", 5, 22, 0, 0},
    {"regex_compile", 1, 4, 0, 0},  {"game_tree", 5, 22, 1, 3},
};

// Names the parameter in ctest test names ("GetParam() = bwt_sort") instead
// of a byte dump of the struct, which would embed the kernel-name pointer.
void PrintTo(const StarvationCase& c, std::ostream* os) { *os << c.app; }

std::vector<StarvationCase> starved_cases() {
  std::vector<StarvationCase> starved;
  for (const StarvationCase& c : kCases)
    if (c.selected_max == 0) starved.push_back(c);
  return starved;
}

vm::Profile profile_of(const apps::App& app) {
  vm::Machine machine(app.module);
  machine.run(app.entry, app.datasets[0].args, 1ull << 30);
  return machine.profile();
}

std::string case_name(const ::testing::TestParamInfo<StarvationCase>& info) {
  return info.param.app;
}

class Starvation : public ::testing::TestWithParam<StarvationCase> {};

// The short prefix keeps every ctest name, "# GetParam() = ..." suffix
// included, within 100 characters.
INSTANTIATE_TEST_SUITE_P(Micro, Starvation, ::testing::ValuesIn(kCases),
                         case_name);

/// Runs only on the kernels pinned to select nothing.
class StarvedKernel : public Starvation {};

INSTANTIATE_TEST_SUITE_P(Micro, StarvedKernel,
                         ::testing::ValuesIn(starved_cases()), case_name);

TEST_P(Starvation, DefaultPipelinePinnedCandidateCounts) {
  const StarvationCase& c = GetParam();
  const apps::App app = apps::build_app(c.app);
  const auto profile = profile_of(app);
  jit::SpecializerConfig config;
  config.implement_hardware = false;  // selection happens before CAD
  const auto spec = jit::specialize(app.module, profile, config);

  EXPECT_GE(spec.candidates_found, c.found_min) << c.app;
  EXPECT_LE(spec.candidates_found, c.found_max) << c.app;
  EXPECT_GE(spec.candidates_selected, c.selected_min) << c.app;
  EXPECT_LE(spec.candidates_selected, c.selected_max) << c.app;
}

TEST_P(StarvedKernel, StarvedPoolsAreUnprofitableNotEmpty) {
  // Starvation must be a property of the candidate pool (no candidate saves
  // cycles), never an accident of the selector: if this fails while the
  // pinned counts still pass, the profitability estimate regressed.
  const StarvationCase& c = GetParam();
  const apps::App app = apps::build_app(c.app);
  const auto profile = profile_of(app);
  jit::SpecializerConfig cfg;
  cfg.implement_hardware = false;
  hwlib::CircuitDb db;
  jit::ObserverList observers;
  const jit::SearchArtifact art =
      jit::CandidateSearchStage(cfg).run(app.module, profile, db, observers);

  ASSERT_FALSE(art.scored.empty()) << c.app << " found no candidates at all";
  for (const ise::ScoredCandidate& sc : art.scored)
    EXPECT_FALSE(ise::selection_eligible(sc, cfg.select))
        << c.app << ": candidate became eligible (saving "
        << sc.cycles_saved_total << ", area " << sc.area_slices << ")";
}

TEST(StarvationProbe, IsegenCannotUnstarveAstarPath) {
  // The anytime ISEGEN refinement starts from the greedy seed and explores
  // swaps; on a pool with zero eligible candidates both must return the
  // empty selection — a starved kernel cannot be rescued by a smarter
  // selector, only by a different candidate pool or cost model.
  const apps::App app = apps::build_app("astar_path");
  const auto profile = profile_of(app);
  jit::SpecializerConfig cfg;
  cfg.implement_hardware = false;
  hwlib::CircuitDb db;
  jit::ObserverList observers;
  const jit::SearchArtifact art =
      jit::CandidateSearchStage(cfg).run(app.module, profile, db, observers);
  ASSERT_FALSE(art.scored.empty());

  const auto greedy = ise::select_greedy(art.scored, cfg.select);
  ise::IsegenConfig generous;
  generous.max_iterations = 5000;
  const auto refined = ise::select_isegen(art.scored, cfg.select, generous);

  EXPECT_TRUE(greedy.chosen.empty());
  EXPECT_TRUE(refined.chosen.empty());
  EXPECT_DOUBLE_EQ(greedy.total_saving, 0.0);
  EXPECT_DOUBLE_EQ(refined.total_saving, 0.0);
}

TEST(StarvationProbe, GameTreeSelectionSurvivesIsegen) {
  // The one micro kernel that selects must keep selecting under ISEGEN, and
  // the refinement can never lose to the greedy seed it starts from.
  const apps::App app = apps::build_app("game_tree");
  const auto profile = profile_of(app);
  jit::SpecializerConfig cfg;
  cfg.implement_hardware = false;
  hwlib::CircuitDb db;
  jit::ObserverList observers;
  const jit::SearchArtifact art =
      jit::CandidateSearchStage(cfg).run(app.module, profile, db, observers);

  const auto greedy = ise::select_greedy(art.scored, cfg.select);
  ise::IsegenConfig generous;
  generous.max_iterations = 5000;
  const auto refined = ise::select_isegen(art.scored, cfg.select, generous);

  EXPECT_GE(greedy.chosen.size(), 1u);
  EXPECT_GE(refined.chosen.size(), 1u);
  EXPECT_GE(refined.total_saving, greedy.total_saving);
}

}  // namespace
