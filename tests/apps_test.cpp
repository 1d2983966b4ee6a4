#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>

#include "apps/app.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "vm/coverage.hpp"
#include "vm/interpreter.hpp"

namespace {

using namespace jitise;

class AppSuite : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(AllApps, AppSuite,
                         ::testing::ValuesIn(apps::app_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n)
                             if (c == '.') c = '_';
                           return n;
                         });

TEST_P(AppSuite, BuildsAndVerifies) {
  const apps::App app = apps::build_app(GetParam());
  EXPECT_EQ(app.name, GetParam());
  const auto errors = ir::verify_module(app.module);
  for (const auto& e : errors) ADD_FAILURE() << e.to_string();
  ASSERT_GE(app.datasets.size(), 2u);
  EXPECT_GT(app.module.total_instructions(), 0u);
}

TEST_P(AppSuite, PrintParseFixpoint) {
  const apps::App app = apps::build_app(GetParam());
  const std::string text = ir::print_module(app.module);
  const ir::Module reparsed = ir::parse_module(text);
  ir::verify_module_or_throw(reparsed);
  EXPECT_EQ(ir::print_module(reparsed), text);
}

TEST_P(AppSuite, ExecutesDeterministically) {
  const apps::App app = apps::build_app(GetParam());
  vm::Machine m1(app.module);
  const auto r1 = m1.run(app.entry, app.datasets[0].args, 1ull << 28);
  vm::Machine m2(app.module);
  const auto r2 = m2.run(app.entry, app.datasets[0].args, 1ull << 28);
  EXPECT_EQ(r1.ret.i, r2.ret.i);
  EXPECT_EQ(r1.steps, r2.steps);
  EXPECT_GT(r1.cycles, 1000u);
}

TEST_P(AppSuite, CoverageHasAllThreeClasses) {
  const apps::App app = apps::build_app(GetParam());
  vm::Machine machine(app.module);
  std::vector<vm::Profile> profiles;
  for (const apps::Dataset& ds : app.datasets) {
    machine.clear_profile();
    machine.reset_memory();
    machine.run(app.entry, ds.args, 1ull << 28);
    profiles.push_back(machine.profile());
  }
  const auto cov = vm::classify_coverage(app.module, profiles);
  EXPECT_GT(cov.live_pct, 5.0) << "live code missing";
  EXPECT_GT(cov.const_pct, 0.5) << "const code missing";
  EXPECT_GT(cov.dead_pct, 0.5) << "dead code missing";
  EXPECT_NEAR(cov.live_pct + cov.dead_pct + cov.const_pct, 100.0, 1e-9);
}

TEST_P(AppSuite, EntryResolvesAndDatasetsAreDistinct) {
  // Per-app registry invariants: the entry symbol resolves in the module,
  // every dataset names a distinct workload (distinct name AND distinct
  // first argument, so train/ref really differ in live work), and a profile
  // of the first dataset covers at least one block of every live function.
  const apps::App app = apps::build_app(GetParam());
  const bool entry_exists = std::any_of(
      app.module.functions.begin(), app.module.functions.end(),
      [&](const auto& fn) { return fn.name == app.entry; });
  EXPECT_TRUE(entry_exists) << app.entry << " missing from module";

  std::set<std::string> names;
  std::set<std::int64_t> scales;
  for (const apps::Dataset& ds : app.datasets) {
    names.insert(ds.name);
    ASSERT_FALSE(ds.args.empty()) << GetParam();
    scales.insert(ds.args[0].i);
  }
  EXPECT_EQ(names.size(), app.datasets.size()) << "duplicate dataset names";
  EXPECT_EQ(scales.size(), app.datasets.size()) << "duplicate dataset scales";

  vm::Machine machine(app.module);
  machine.run(app.entry, app.datasets[0].args, 1ull << 28);
  const vm::Profile& profile = machine.profile();
  ASSERT_EQ(profile.block_counts.size(), app.module.functions.size());
  std::uint64_t covered = 0;
  for (const auto& fn : profile.block_counts)
    for (std::uint64_t c : fn) covered += c != 0;
  EXPECT_GE(covered, 1u) << "profile covers no block";
}

TEST_P(AppSuite, KernelDominatesExecution) {
  const apps::App app = apps::build_app(GetParam());
  vm::Machine machine(app.module);
  machine.run(app.entry, app.datasets[0].args, 1ull << 28);
  const auto kernel = vm::find_kernel(app.module, machine.profile(),
                                      machine.cost_model());
  EXPECT_GE(kernel.freq_pct, 90.0);
  EXPECT_LT(kernel.size_pct, 60.0) << "kernel should be a small code share";
}

TEST(Apps, StatisticsTrackPaperScale) {
  // Embedded apps are small; scientific apps are 1-2 orders larger.
  const apps::App fft = apps::build_app("fft");
  const apps::App namd = apps::build_app("444.namd");
  EXPECT_LT(fft.module.total_instructions(), 1500u);
  EXPECT_GT(namd.module.total_instructions(), 20000u);
  // Generated sizes within a reasonable factor of the paper's Table I.
  const double fft_ratio = static_cast<double>(fft.module.total_instructions()) /
                           fft.paper.instructions;
  const double namd_ratio =
      static_cast<double>(namd.module.total_instructions()) /
      namd.paper.instructions;
  EXPECT_GT(fft_ratio, 0.5);
  EXPECT_LT(fft_ratio, 4.0);
  EXPECT_GT(namd_ratio, 0.5);
  EXPECT_LT(namd_ratio, 2.0);
}

TEST(Apps, DatasetsDifferInLiveWork) {
  const apps::App app = apps::build_app("adpcm");
  vm::Machine m1(app.module);
  m1.run(app.entry, app.datasets[0].args, 1ull << 28);
  vm::Machine m2(app.module);
  m2.run(app.entry, app.datasets[1].args, 1ull << 28);
  EXPECT_GT(m2.profile().cpu_cycles, m1.profile().cpu_cycles);
}

TEST(Apps, SuitesPartitionTheRegistry) {
  const auto classic = apps::app_names(apps::Suite::Classic);
  const auto micro = apps::app_names(apps::Suite::Micro);
  const auto all = apps::app_names(apps::Suite::All);
  EXPECT_EQ(classic.size(), 14u);
  EXPECT_EQ(micro.size(), 8u);
  ASSERT_EQ(all.size(), classic.size() + micro.size());
  // All = classic followed by micro, with no duplicates anywhere.
  for (std::size_t i = 0; i < classic.size(); ++i)
    EXPECT_EQ(all[i], classic[i]);
  for (std::size_t i = 0; i < micro.size(); ++i)
    EXPECT_EQ(all[classic.size() + i], micro[i]);
  const std::set<std::string> unique(all.begin(), all.end());
  EXPECT_EQ(unique.size(), all.size());
  // The default overload is the full registry.
  EXPECT_EQ(apps::app_names(), all);
}

TEST(Apps, MicroSuiteIsTaggedIrregular) {
  for (const std::string& name : apps::app_names(apps::Suite::Micro)) {
    const apps::App app = apps::build_app(name);
    EXPECT_EQ(app.domain, apps::Domain::Irregular) << name;
    // Micro apps have no paper row; their stats must stay zeroed so the
    // table drivers can recognize them.
    EXPECT_EQ(app.paper.instructions, 0) << name;
  }
}

TEST(Apps, UnknownAppErrorListsValidNames) {
  try {
    (void)apps::build_app("no_such_app");
    FAIL() << "build_app must throw for unknown names";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("no_such_app"), std::string::npos);
    // The message enumerates every valid name from both suites.
    for (const std::string& name : apps::app_names(apps::Suite::All))
      EXPECT_NE(msg.find(name), std::string::npos) << name;
  }
}

}  // namespace
