#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <span>

#include "apps/app.hpp"
#include "cad/flow.hpp"
#include "cad/runtime_model.hpp"
#include "cad/syntax.hpp"
#include "fpga/bitgen.hpp"
#include "fpga/fabric.hpp"
#include "fpga/place.hpp"
#include "fpga/report.hpp"
#include "fpga/route.hpp"
#include "fpga/sta.hpp"
#include "fpga/synthesis.hpp"
#include "ir/builder.hpp"
#include "ise/identify.hpp"
#include "jit/pipeline.hpp"
#include "support/rng.hpp"
#include "support/statistics.hpp"

#include "cad_reference.hpp"
#include "common.hpp"

namespace {

using namespace jitise;
using namespace jitise::ir;

TEST(Fabric, Geometry) {
  const fpga::Fabric fabric;
  EXPECT_GT(fabric.capacity(fpga::SiteKind::Clb), 0u);
  EXPECT_GT(fabric.capacity(fpga::SiteKind::Dsp), 0u);
  EXPECT_GT(fabric.capacity(fpga::SiteKind::Bram), 0u);
  EXPECT_EQ(fabric.capacity(fpga::SiteKind::Clb) +
                fabric.capacity(fpga::SiteKind::Dsp) +
                fabric.capacity(fpga::SiteKind::Bram),
            static_cast<std::size_t>(fabric.width()) * fabric.height());
  EXPECT_TRUE(fpga::Fabric::compatible(hwlib::CellKind::Dsp, fpga::SiteKind::Dsp));
  EXPECT_FALSE(fpga::Fabric::compatible(hwlib::CellKind::Dsp, fpga::SiteKind::Clb));
}

/// Small chain netlist: in -> c0 -> c1 -> ... -> c{k-1} -> out, plus a DSP.
hwlib::Netlist make_chain_netlist(unsigned k) {
  hwlib::Netlist nl;
  nl.top_name = "chain";
  hwlib::NetId prev = nl.new_net();
  nl.add_cell(hwlib::CellKind::PortIn, "in", {}, {prev});
  for (unsigned i = 0; i < k; ++i) {
    const hwlib::NetId next = nl.new_net();
    nl.add_cell(hwlib::CellKind::Cluster, "c" + std::to_string(i), {prev}, {next});
    prev = next;
  }
  const hwlib::NetId dsp_out = nl.new_net();
  nl.add_cell(hwlib::CellKind::Dsp, "d0", {prev}, {dsp_out});
  nl.add_cell(hwlib::CellKind::PortOut, "out", {dsp_out}, {});
  return nl;
}

/// A random legal placement: each cell on a distinct site of its kind, drawn
/// without replacement under `seed`.
fpga::Placement random_placement(const fpga::MappedDesign& design,
                                 const fpga::Fabric& fabric,
                                 std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  // Free sites per kind, keyed by the kind's site list.
  std::map<const std::vector<fpga::Coord>*, std::vector<fpga::Coord>> free;
  fpga::Placement pl;
  for (const hwlib::Cell& cell : design.cells) {
    const std::vector<fpga::Coord>& sites = fabric.sites_for(cell.kind);
    std::vector<fpga::Coord>& pool =
        free.try_emplace(&sites, sites).first->second;
    const std::size_t pick = rng.below(pool.size());
    pl.location.push_back(pool[pick]);
    pool[pick] = pool.back();
    pool.pop_back();
  }
  pl.hpwl = fpga::total_hpwl(design, pl.location);
  return pl;
}

TEST(Synthesis, NetExtraction) {
  const auto nl = make_chain_netlist(5);
  const auto design = fpga::synthesize_top(nl);
  EXPECT_EQ(design.cell_count(), 8u);        // in + 5 clusters + dsp + out
  EXPECT_EQ(design.net_count(), 7u);         // each net has driver and sink
  EXPECT_EQ(design.count(hwlib::CellKind::Dsp), 1u);
  EXPECT_EQ(design.pruned_nets, 0u);
}

TEST(Synthesis, RejectsMultiplyDriven) {
  hwlib::Netlist nl;
  const hwlib::NetId n = nl.new_net();
  nl.add_cell(hwlib::CellKind::Cluster, "a", {}, {n});
  nl.add_cell(hwlib::CellKind::Cluster, "b", {}, {n});
  EXPECT_THROW((void)fpga::synthesize_top(nl), fpga::CadError);
}

TEST(Placer, LegalAndDeterministic) {
  const auto design = fpga::synthesize_top(make_chain_netlist(30));
  const fpga::Fabric fabric;
  const auto p1 = fpga::place(design, fabric);
  const auto p2 = fpga::place(design, fabric);
  EXPECT_TRUE(p1.legal(design, fabric));
  EXPECT_EQ(p1.location, p2.location);  // same seed, same result
  EXPECT_GT(p1.moves_tried, 0u);

  fpga::PlacerConfig other;
  other.seed = 99;
  const auto p3 = fpga::place(design, fabric, other);
  EXPECT_TRUE(p3.legal(design, fabric));
}

TEST(Placer, ImprovesOverRandom) {
  const auto design = fpga::synthesize_top(make_chain_netlist(60));
  const fpga::Fabric fabric;
  const auto random = random_placement(design, fabric, 1);
  ASSERT_TRUE(random.legal(design, fabric));
  const auto placed = fpga::place(design, fabric);
  EXPECT_LT(placed.hpwl, random.hpwl * 0.7)
      << "placement should shrink wirelength substantially";
}

TEST(Router, RoutesAndValidates) {
  const auto design = fpga::synthesize_top(make_chain_netlist(40));
  const fpga::Fabric fabric;
  const auto placement = fpga::place(design, fabric);
  const auto routing = fpga::route(design, fabric, placement);
  EXPECT_TRUE(routing.success);
  EXPECT_EQ(routing.overused_edges, 0u);
  EXPECT_GT(routing.total_wirelength, 0u);
  const auto errors = fpga::validate_routing(design, fabric, placement, routing);
  for (const auto& e : errors) ADD_FAILURE() << e;
}

TEST(Router, HandlesCongestion) {
  // Tight fabric with small channel capacity forces negotiation.
  fpga::FabricConfig cfg;
  cfg.width = 6;
  cfg.height = 6;
  cfg.dsp_column_period = 0;
  cfg.bram_column_period = 0;
  cfg.wires_per_channel = 2;
  const fpga::Fabric fabric(cfg);

  // Star netlist: one hub driving many leaves -> congestion near the hub.
  hwlib::Netlist nl;
  nl.top_name = "star";
  const hwlib::NetId hub_out = nl.new_net();
  nl.add_cell(hwlib::CellKind::Cluster, "hub", {}, {hub_out});
  for (int i = 0; i < 12; ++i) {
    const hwlib::NetId leaf_out = nl.new_net();
    nl.add_cell(hwlib::CellKind::Cluster, "leaf" + std::to_string(i),
                {hub_out}, {leaf_out});
    nl.add_cell(hwlib::CellKind::PortOut, "o" + std::to_string(i), {leaf_out}, {});
  }
  const auto design = fpga::synthesize_top(nl);
  const auto placement = fpga::place(design, fabric);
  const auto routing = fpga::route(design, fabric, placement);
  EXPECT_TRUE(routing.success);
  const auto errors = fpga::validate_routing(design, fabric, placement, routing);
  for (const auto& e : errors) ADD_FAILURE() << e;
}

TEST(Sta, ChainTiming) {
  const unsigned k = 10;
  const auto design = fpga::synthesize_top(make_chain_netlist(k));
  const fpga::Fabric fabric;
  const auto placement = fpga::place(design, fabric);
  const auto routing = fpga::route(design, fabric, placement);
  const auto timing = fpga::analyze_timing(design, fabric, placement, routing);
  EXPECT_FALSE(timing.combinational_loop);
  // Path: in + 10 clusters + dsp + out = 13 cells.
  EXPECT_EQ(timing.logic_levels, k + 3);
  fpga::DelayModel d;
  const double min_expected =
      2 * d.port_ns + k * d.cluster_ns + d.dsp_ns;  // zero wire delay bound
  EXPECT_GE(timing.critical_path_ns, min_expected);
  EXPECT_GT(timing.fmax_mhz, 0.0);
}

TEST(Bitgen, DeterministicAndSized) {
  const auto design = fpga::synthesize_top(make_chain_netlist(20));
  const fpga::Fabric fabric;
  const auto placement = fpga::place(design, fabric);
  const auto routing = fpga::route(design, fabric, placement);
  const auto b1 =
      fpga::generate_bitstream(design, fabric, placement, routing, "xc4vfx100");
  const auto b2 =
      fpga::generate_bitstream(design, fabric, placement, routing, "xc4vfx100");
  EXPECT_EQ(b1.bytes, b2.bytes);
  EXPECT_EQ(b1.crc32, b2.crc32);
  EXPECT_EQ(b1.frame_count, fabric.width());
  EXPECT_GT(b1.size_bytes(),
            static_cast<std::size_t>(fabric.width()) * fabric.height());

  // A different placement changes the bitstream.
  const auto placement2 = random_placement(design, fabric, 1234);
  const auto routing2 = fpga::route(design, fabric, placement2);
  const auto b3 = fpga::generate_bitstream(design, fabric, placement2, routing2,
                                           "xc4vfx100");
  EXPECT_NE(b1.bytes, b3.bytes);
}

TEST(RuntimeModel, CalibratedToPaperTableIII) {
  const cad::CadRuntimeModel model;
  support::RunningStats c2v, syn, xst, tra, bitgen;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    c2v.add(model.c2v_seconds(seed));
    syn.add(model.syn_seconds(seed));
    xst.add(model.xst_seconds(100, seed));
    tra.add(model.tra_seconds(seed));
    bitgen.add(model.bitgen_seconds(seed));
  }
  EXPECT_NEAR(c2v.mean(), 3.22, 0.05);
  EXPECT_NEAR(syn.mean(), 4.22, 0.05);
  EXPECT_NEAR(xst.mean(), 10.60 + 0.2, 0.15);
  EXPECT_NEAR(tra.mean(), 8.99, 0.25);
  EXPECT_NEAR(bitgen.mean(), 151.0, 1.0);
  EXPECT_NEAR(bitgen.stdev(), 2.43, 0.8);
  // Bitgen dominates the constant overheads (paper: 85 %).
  const double constants = model.constant_overhead_seconds(42);
  EXPECT_GT(model.bitgen_seconds(42) / constants, 0.80);
}

TEST(RuntimeModel, MapParScaling) {
  const cad::CadRuntimeModel model;
  // Small candidates near the lower bound, big candidates near the upper.
  EXPECT_NEAR(model.map_seconds(5, 1), 40.0, 6.0);
  EXPECT_GT(model.map_seconds(900, 1), 300.0);
  EXPECT_LE(model.map_seconds(5000, 1), 456.0 * 1.1);
  // PAR/map ratio grows from ~1.4 with size (paper §V-C), but PAR never
  // exceeds the observed 728 s ceiling.
  const double small_ratio = model.par_seconds(10, 10, 1) / model.map_seconds(10, 1);
  const double mid_ratio = model.par_seconds(300, 300, 1) / model.map_seconds(300, 1);
  EXPECT_NEAR(small_ratio, 1.4, 0.2);
  EXPECT_GT(mid_ratio, small_ratio);
  EXPECT_LE(model.par_seconds(900, 900, 1), 728.0 * 1.05);
  // Speedup fraction scales everything linearly.
  cad::CadRuntimeModel faster = model;
  faster.speedup_fraction = 0.30;
  EXPECT_NEAR(faster.bitgen_seconds(7), 0.7 * model.bitgen_seconds(7), 1e-9);
}

TEST(Syntax, AcceptsGeneratedVhdl) {
  Module m;
  FunctionBuilder fb(m, "f", Type::I32, {Type::I32, Type::I32});
  const ValueId s = fb.binop(Opcode::Add, fb.param(0), fb.param(1));
  const ValueId t = fb.binop(Opcode::Mul, s, fb.const_int(Type::I32, 3));
  fb.ret(t);
  fb.finish();
  const dfg::BlockDfg graph(m.functions[0], 0);
  const auto misos = ise::find_max_misos(graph);
  ASSERT_EQ(misos.size(), 1u);
  hwlib::CircuitDb db;
  const std::string vhdl = datapath::generate_vhdl(graph, misos[0], db, "ok");
  const auto errors = cad::check_vhdl_syntax(vhdl);
  for (const auto& e : errors) ADD_FAILURE() << e << "\n" << vhdl;
}

TEST(Syntax, RejectsBroken) {
  EXPECT_FALSE(cad::check_vhdl_syntax("garbage").empty());
  EXPECT_FALSE(cad::check_vhdl_syntax(
                   "entity x is\nend entity;\n")  // no architecture
                   .empty());
  const char* bad_signal =
      "library ieee;\n"
      "entity x is\n  port (\n    a : in std_logic_vector(3 downto 0)\n  );\n"
      "end entity;\n"
      "architecture s of x is\nbegin\n  y <= a;\nend architecture;\n";
  const auto errors = cad::check_vhdl_syntax(bad_signal);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("undeclared"), std::string::npos);
}

TEST(Flow, EndToEndImplementation) {
  Module m;
  FunctionBuilder fb(m, "f", Type::I32, {Type::I32, Type::I32});
  const ValueId s = fb.binop(Opcode::Add, fb.param(0), fb.param(1));
  const ValueId d = fb.binop(Opcode::Sub, fb.param(0), fb.param(1));
  const ValueId p = fb.binop(Opcode::Mul, s, d);
  const ValueId q = fb.binop(Opcode::Xor, p, s);
  fb.ret(q);
  fb.finish();
  const dfg::BlockDfg graph(m.functions[0], 0);
  auto misos = ise::find_max_misos(graph);
  // s feeds both mul and xor, so it roots its own MaxMISO; {d, p, q} is the
  // other. Implement the larger one.
  std::sort(misos.begin(), misos.end(),
            [](const auto& a, const auto& b) { return a.size() > b.size(); });
  ASSERT_EQ(misos.size(), 2u);
  ASSERT_EQ(misos[0].size(), 3u);

  hwlib::CircuitDb db;
  const auto project = datapath::create_project(graph, misos[0], db, "ci_e2e");
  const auto result = cad::implement_candidate(project);

  EXPECT_GT(result.cells, 0u);
  EXPECT_GT(result.nets, 0u);
  EXPECT_GT(result.dsp_cells, 0u);  // mul
  EXPECT_GT(result.bitstream.size_bytes(), 0u);
  EXPECT_FALSE(result.timing.combinational_loop);
  EXPECT_GT(result.timing.critical_path_ns, 0.0);

  // Modeled runtimes: every stage populated, bitgen dominates constants.
  EXPECT_GT(result.syn.modeled_seconds, 0.0);
  EXPECT_GT(result.map.modeled_seconds, 30.0);
  EXPECT_GT(result.par.modeled_seconds, result.map.modeled_seconds);
  EXPECT_GT(result.bitgen.modeled_seconds, 100.0);
  EXPECT_GT(result.total_modeled_seconds(), result.constant_modeled_seconds());

  // Determinism end to end.
  const auto again = cad::implement_candidate(project);
  EXPECT_EQ(result.bitstream.bytes, again.bitstream.bytes);
}

TEST(GreedyPlacer, LegalDeterministicAndRoutable) {
  const auto design = fpga::synthesize_top(make_chain_netlist(50));
  const fpga::Fabric fabric;
  const auto p1 = fpga::place_greedy(design, fabric);
  const auto p2 = fpga::place_greedy(design, fabric);
  EXPECT_TRUE(p1.legal(design, fabric));
  EXPECT_EQ(p1.location, p2.location);
  // Connected cells should sit close: greedy HPWL must beat random scatter.
  EXPECT_LT(p1.hpwl, random_placement(design, fabric, 1).hpwl);
  // And the result routes.
  const auto routing = fpga::route(design, fabric, p1);
  EXPECT_TRUE(routing.success);
}

// ---- Placement quality and the router against its reference -------------

/// A random design shaped like the generated candidates: a head cell drives
/// a bus of `bus_sinks` entries drawn with repetition (so cells recur on it),
/// one sink is listed twice on a net, one cell sinks its own output, and
/// every other cell drives 1-3 random sinks. The last `dsp` cells are DSPs.
fpga::MappedDesign random_design(std::uint64_t seed, std::size_t cells,
                                 std::size_t dsp, std::size_t bus_sinks) {
  support::Xoshiro256 rng(seed);
  fpga::MappedDesign d;
  d.name = "random";
  d.cells.resize(cells);
  d.cells[0].kind = hwlib::CellKind::PortIn;
  for (std::size_t i = 0; i < dsp; ++i)
    d.cells[cells - 1 - i].kind = hwlib::CellKind::Dsp;
  auto any_cell = [&] { return static_cast<hwlib::CellId>(rng.below(cells)); };

  fpga::MappedNet bus{1, {}};
  for (std::size_t k = 0; k < bus_sinks; ++k) bus.sinks.push_back(any_cell());
  d.nets.push_back(bus);
  for (hwlib::CellId c = 2; c < cells; ++c) {
    fpga::MappedNet net{c, {}};
    const std::uint64_t fanout = 1 + rng.below(3);
    for (std::uint64_t k = 0; k < fanout; ++k) net.sinks.push_back(any_cell());
    d.nets.push_back(net);
  }
  d.nets.push_back({0, {2, 3, 2}});  // sink 2 listed twice
  d.nets.push_back({3, {3, 4}});     // cell 3 sinks its own output
  return d;
}

/// A small square fabric: a DSP column every fifth column, no BRAM.
fpga::Fabric small_fabric(std::uint16_t side, std::uint16_t wires) {
  return fpga::Fabric(fpga::FabricConfig{side, side, 5, 0, wires});
}

struct CandidateDesign {
  fpga::MappedDesign design;
  fpga::PlacerConfig placer;  // the CAD flow's, seeded per candidate
};

/// Size of candidate_corpus(); pinned so a change in what it gathers shows.
constexpr std::size_t kCandidateCorpusSize = 24;

/// Distinct candidates of three apps with large designs (up to 885 cells and
/// a 387-sink head bus), built the way the pipeline builds them: each
/// block's provisional selection — greedy over the candidates of that block
/// and every block before it — and the final selection. The provisional
/// picks include two designs the final selections drop: a 694-cell 188.ammp
/// candidate and a 115-cell 444.namd one. Built once per test binary.
const std::vector<CandidateDesign>& candidate_corpus() {
  static const std::vector<CandidateDesign> corpus = [] {
    std::vector<CandidateDesign> all;
    std::set<std::uint64_t> seen;
    const jit::SpecializerConfig cfg;
    for (const char* name : {"whetstone", "444.namd", "188.ammp"}) {
      const apps::App app = apps::build_app(name);
      vm::Machine machine(app.module);
      machine.run(app.entry, app.datasets[0].args, 1ull << 30);
      hwlib::CircuitDb db;
      jit::PipelineObserver quiet;
      const jit::SearchArtifact art = jit::search_candidates(
          cfg, app.module, machine.profile(), db, quiet);
      std::vector<std::size_t> picked;
      for (std::size_t g = 0; g < art.graphs.size(); ++g) {
        // art.graph_of is non-decreasing: the prefix ending at block g.
        const auto end = std::upper_bound(art.graph_of.begin(),
                                          art.graph_of.end(), g);
        const auto prefix = std::span<const ise::ScoredCandidate>(art.scored)
                                .first(static_cast<std::size_t>(
                                    end - art.graph_of.begin()));
        const ise::Selection provisional =
            ise::select_greedy(prefix, cfg.select);
        picked.insert(picked.end(), provisional.chosen.begin(),
                      provisional.chosen.end());
      }
      picked.insert(picked.end(), art.selection.chosen.begin(),
                    art.selection.chosen.end());
      for (std::size_t idx : picked) {
        const auto project =
            datapath::create_project(*art.graphs[art.graph_of[idx]],
                                     art.scored[idx].candidate, db,
                                     name + ("_" + std::to_string(idx)));
        if (!seen.insert(project.signature).second) continue;
        CandidateDesign c{fpga::synthesize_top(project.netlist),
                          cfg.flow.placer};
        c.placer.seed ^= project.signature;
        all.push_back(std::move(c));
      }
    }
    return all;
  }();
  return corpus;
}

/// bench::cold_designs(), built once per test binary.
const std::vector<bench::SelectedDesign>& cold_corpus() {
  static const std::vector<bench::SelectedDesign> corpus =
      bench::cold_designs();
  return corpus;
}

void expect_same_routing(const fpga::RoutingResult& got,
                         const fpga::RoutingResult& want,
                         const std::string& what) {
  ASSERT_EQ(got.nets.size(), want.nets.size()) << what;
  for (std::size_t ni = 0; ni < got.nets.size(); ++ni)
    EXPECT_EQ(got.nets[ni].edges, want.nets[ni].edges) << what << " net " << ni;
  EXPECT_EQ(got.iterations, want.iterations) << what;
  EXPECT_EQ(got.total_wirelength, want.total_wirelength) << what;
  EXPECT_EQ(got.overused_edges, want.overused_edges) << what;
  EXPECT_EQ(got.success, want.success) << what;
}

std::string label(const char* kind, std::uint16_t side, std::uint64_t seed) {
  return std::string(kind) + " " + std::to_string(side) + "x" +
         std::to_string(side) + " seed " + std::to_string(seed);
}

TEST(Placer, TrackedCostIsTotalHpwl) {
  // The placer's incrementally tracked cost must be its result's HPWL, on
  // nets that list a sink twice, sink their own driver or carry a bus.
  auto check = [](const fpga::MappedDesign& design, const fpga::Fabric& fabric,
                  std::uint64_t seed, const std::string& what) {
    const fpga::Placement pl = fpga::place(design, fabric, {seed});
    EXPECT_TRUE(pl.legal(design, fabric)) << what;
    EXPECT_EQ(pl.hpwl, fpga::total_hpwl(design, pl.location)) << what;
    EXPECT_GT(pl.moves_accepted, 0u) << what;
  };
  // Bus-heavy designs on the default region: most targets are empty sites.
  const fpga::Fabric region;
  for (std::uint64_t seed = 1; seed <= 20; ++seed)
    check(random_design(seed, 120 + 10 * seed, 4, 100 + 15 * seed), region,
          seed, label("region", region.width(), seed));
  // Nearly full fabrics: most moves swap two cells, often on shared nets.
  for (std::uint16_t side : {6, 8, 10, 12}) {
    const fpga::Fabric fabric = small_fabric(side, 10);
    const std::size_t dsp = fabric.capacity(fpga::SiteKind::Dsp) - 1;
    const std::size_t cells = fabric.capacity(fpga::SiteKind::Clb) - 2 + dsp;
    for (std::uint64_t seed = 1; seed <= 20; ++seed)
      check(random_design(seed * 31 + side, cells, dsp, 100 + 15 * seed),
            fabric, seed, label("dense", side, seed));
  }
}

void expect_same_placement(const fpga::Placement& got,
                           const fpga::Placement& want,
                           const std::string& what) {
  EXPECT_EQ(got.location, want.location) << what;
  EXPECT_EQ(got.hpwl, want.hpwl) << what;
  EXPECT_EQ(got.moves_tried, want.moves_tried) << what;
  EXPECT_EQ(got.moves_accepted, want.moves_accepted) << what;
}

TEST(Placer, MatchesReference) {
  // `place` evaluates each net a move touches once and skips the nets both
  // swapped cells hold; the reference moves the two cells one after the
  // other. Every accept decision, and so every placement, must agree.
  const fpga::Fabric region;
  ASSERT_EQ(cold_corpus().size(), 58u);
  for (const bench::SelectedDesign& c : cold_corpus())
    expect_same_placement(fpga::place(c.design, region, c.placer),
                          fpga::reference::place(c.design, region, c.placer),
                          c.app + " " + c.design.name);
  // Bus-heavy designs on the default region: most targets are empty sites.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto design =
        random_design(seed, 120 + 10 * seed, 4, 100 + 15 * seed);
    expect_same_placement(fpga::place(design, region, {seed}),
                          fpga::reference::place(design, region, {seed}),
                          label("region", region.width(), seed));
  }
  // Nearly full and half-full small fabrics: most moves swap two cells,
  // often on shared nets, or land on an empty site.
  for (std::uint16_t side : {6, 8, 10, 12}) {
    const fpga::Fabric fabric = small_fabric(side, 10);
    const std::size_t dsp_sites = fabric.capacity(fpga::SiteKind::Dsp);
    const std::size_t clb_sites = fabric.capacity(fpga::SiteKind::Clb);
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      const auto dense =
          random_design(seed * 31 + side, clb_sites - 2 + dsp_sites - 1,
                        dsp_sites - 1, 100 + 15 * seed);
      expect_same_placement(fpga::place(dense, fabric, {seed}),
                            fpga::reference::place(dense, fabric, {seed}),
                            label("dense", side, seed));
      const auto half =
          random_design(seed * 17 + side, clb_sites / 2 + dsp_sites / 2,
                        dsp_sites / 2, 100 + 15 * seed);
      expect_same_placement(fpga::place(half, fabric, {seed}),
                            fpga::reference::place(half, fabric, {seed}),
                            label("half", side, seed));
    }
  }
}

TEST(Placer, CorpusQuality) {
  // Quality floor over real candidates, each placed with the CAD flow's
  // seed: summed routed wirelength no worse than the corpus's 74,843 under
  // the full-region annealer that `place` replaced, and summed critical path
  // no longer than its greedy seed's 1,687.03 ns.
  const fpga::Fabric region;
  ASSERT_EQ(cold_corpus().size(), 58u);
  std::uint64_t wirelength = 0;
  double critical_ns = 0.0;
  for (const bench::SelectedDesign& c : cold_corpus()) {
    const auto placement = fpga::place(c.design, region, c.placer);
    EXPECT_TRUE(placement.legal(c.design, region)) << c.app;
    EXPECT_EQ(placement.location,
              fpga::place(c.design, region, c.placer).location)
        << c.app << ": same seed, same placement";
    const auto routing = fpga::route(c.design, region, placement);
    EXPECT_TRUE(routing.success) << c.app;
    EXPECT_EQ(routing.overused_edges, 0u) << c.app;
    wirelength += routing.total_wirelength;
    critical_ns +=
        fpga::analyze_timing(c.design, region, placement, routing)
            .critical_path_ns;
  }
  EXPECT_LE(wirelength, 74843u);
  EXPECT_LE(critical_ns, 1687.03);
}

TEST(Router, MatchesReference) {
  // Capacities of 2-3 on a third-full fabric: most inputs converge after
  // several rip-up iterations, some never do.
  std::uint32_t max_iterations = 0;
  for (std::uint16_t side : {6, 8, 10, 12}) {
    for (std::uint16_t wires : {2, 3}) {
      const fpga::Fabric fabric = small_fabric(side, wires);
      const std::size_t dsp = fabric.capacity(fpga::SiteKind::Dsp) / 2;
      const std::size_t cells = fabric.capacity(fpga::SiteKind::Clb) / 3 + dsp;
      for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        const auto design =
            random_design(seed * 7 + side, cells, dsp, 100 + 15 * seed);
        const auto placement = fpga::place(design, fabric, {seed});
        const auto want = fpga::reference::route(design, fabric, placement, {});
        expect_same_routing(fpga::route(design, fabric, placement), want,
                            label("routing", side, seed) + " wires " +
                                std::to_string(wires));
        max_iterations = std::max(max_iterations, want.iterations);
      }
    }
  }
  EXPECT_GT(max_iterations, 2u) << "no input needed rip-up and reroute";

  const fpga::Fabric region;
  ASSERT_EQ(candidate_corpus().size(), kCandidateCorpusSize);
  for (const CandidateDesign& c : candidate_corpus()) {
    const auto placement = fpga::place(c.design, region, c.placer);
    expect_same_routing(fpga::route(c.design, region, placement),
                        fpga::reference::route(c.design, region, placement, {}),
                        c.design.name);
  }

  // The largest final selection of each app, placed by `place_greedy`.
  // There, whetstone's and 444.namd's designs, with their 387-sink buses,
  // take 6 and 10 rip-up iterations, so the search bound meets history and
  // present-congestion costs.
  std::uint32_t greedy_iterations = 0;
  for (const std::string app : {"whetstone", "444.namd", "188.ammp"}) {
    const bench::SelectedDesign* largest = nullptr;
    for (const bench::SelectedDesign& c : cold_corpus()) {
      if (c.app != app) continue;
      if (largest == nullptr ||
          c.design.cell_count() > largest->design.cell_count())
        largest = &c;
    }
    ASSERT_NE(largest, nullptr) << app;
    const auto placement = fpga::place_greedy(largest->design, region);
    const auto want =
        fpga::reference::route(largest->design, region, placement, {});
    expect_same_routing(fpga::route(largest->design, region, placement), want,
                        app + " greedy");
    greedy_iterations = std::max(greedy_iterations, want.iterations);
  }
  EXPECT_GT(greedy_iterations, 2u)
      << "no greedy placement needed rip-up and reroute";
}

TEST(Router, BoundedSearchPopsFewTiles) {
  // The search bound changes no route, so only its work shows that it
  // holds: the heap pops over the corpus cold specialization implements,
  // each design placed with the CAD flow's seed. The unbounded search pops
  // 1,287,707 tiles there; the bounded one pops 75,635.
  const fpga::Fabric region;
  std::uint64_t heap_pops = 0;
  for (const bench::SelectedDesign& c : cold_corpus()) {
    const auto placement = fpga::place(c.design, region, c.placer);
    heap_pops += fpga::route(c.design, region, placement).heap_pops;
  }
  EXPECT_LE(heap_pops, 75635u);
}

TEST(RuntimeModel, CoarseGrainedOverlayIsMuchFaster) {
  const cad::CadRuntimeModel fine;
  const auto coarse = cad::CadRuntimeModel::coarse_grained_overlay();
  EXPECT_LT(coarse.constant_overhead_seconds(1) * 20,
            fine.constant_overhead_seconds(1));
  EXPECT_LT(coarse.map_seconds(200, 1) * 5, fine.map_seconds(200, 1));
}

TEST(Report, FloorplanAndUtilization) {
  const auto design = fpga::synthesize_top(make_chain_netlist(10));
  const fpga::Fabric fabric;
  const auto placement = fpga::place_greedy(design, fabric);
  const std::string plan = fpga::floorplan_ascii(design, fabric, placement);
  // One line per row, each as wide as the fabric.
  std::size_t lines = 0;
  for (char c : plan) lines += c == '\n';
  EXPECT_EQ(lines, fabric.height());
  EXPECT_NE(plan.find('#'), std::string::npos);  // clusters visible
  EXPECT_NE(plan.find('D'), std::string::npos);  // the DSP cell
  const std::string util = fpga::utilization_report(design, fabric);
  EXPECT_NE(util.find("DSP48"), std::string::npos);
  EXPECT_NE(util.find("%"), std::string::npos);
}

}  // namespace
