#include <gtest/gtest.h>

#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "apps/app.hpp"
#include "ir/builder.hpp"
#include "ir/verifier.hpp"
#include "ise/identify.hpp"
#include "support/rng.hpp"
#include "jit/breakeven.hpp"
#include "jit/cache.hpp"
#include "jit/pipeline.hpp"
#include "jit/specializer.hpp"
#include "woolcano/asip.hpp"
#include "woolcano/rewriter.hpp"

namespace {

using namespace jitise;
using namespace jitise::ir;

/// Hot loop computing a polynomial hash over i (feasible 5-op chain) plus a
/// cold block; good candidate material.
Module make_app() {
  Module m;
  m.name = "miniapp";
  FunctionBuilder fb(m, "main", Type::I32, {Type::I32});
  const BlockId hot = fb.new_block("hot");
  const BlockId exit = fb.new_block("exit");
  fb.br(hot);
  fb.set_insert(hot);
  const ValueId i = fb.phi(Type::I32);
  const ValueId acc = fb.phi(Type::I32);
  // The chain contains a divide — exactly the kind of multi-cycle operation
  // that makes integer candidates profitable on the FCM.
  const ValueId t1 = fb.binop(Opcode::Mul, acc, fb.const_int(Type::I32, 31));
  const ValueId t2 = fb.binop(Opcode::Add, t1, i);
  const ValueId t2b = fb.binop(Opcode::SDiv, t2, fb.const_int(Type::I32, 7));
  const ValueId t3 = fb.binop(Opcode::Xor, t2b, fb.const_int(Type::I32, 0x5a5a));
  const ValueId t4 = fb.binop(Opcode::And, t3, fb.const_int(Type::I32, 0x7fffffff));
  const ValueId inext = fb.binop(Opcode::Add, i, fb.const_int(Type::I32, 1));
  const ValueId cont = fb.icmp(ICmpPred::Slt, inext, fb.param(0));
  fb.condbr(cont, hot, exit);
  fb.phi_incoming(i, fb.const_int(Type::I32, 0), fb.entry());
  fb.phi_incoming(i, inext, hot);
  fb.phi_incoming(acc, fb.const_int(Type::I32, 7), fb.entry());
  fb.phi_incoming(acc, t4, hot);
  fb.set_insert(exit);
  fb.ret(t4);
  fb.finish();
  verify_module_or_throw(m);
  return m;
}

TEST(Specializer, EndToEndPipeline) {
  const Module m = make_app();
  vm::Machine machine(m);
  const vm::Slot args[] = {vm::Slot::of_int(2000)};
  const auto orig = machine.run("main", args);

  jit::SpecializerConfig config;
  const auto result = jit::specialize(m, machine.profile(), config);

  EXPECT_GE(result.candidates_found, 1u);
  EXPECT_GE(result.candidates_selected, 1u);
  EXPECT_GT(result.search_real_ms, 0.0);
  ASSERT_FALSE(result.implemented.empty());
  const auto& impl = result.implemented[0];
  EXPECT_FALSE(impl.cache_hit);
  EXPECT_GT(impl.bitstream_bytes, 0u);
  EXPECT_GT(impl.total_seconds(), 150.0);  // bitgen alone is ~151 s modeled
  EXPECT_GT(result.predicted_speedup, 1.0);

  // Rewritten module is valid and semantically identical.
  verify_module_or_throw(result.rewritten);
  EXPECT_GE(woolcano::count_custom_ops(result.rewritten), 1u);
  const auto diff = woolcano::run_adapted(m, result.rewritten, result.registry,
                                          "main", args);
  EXPECT_EQ(diff.original_result.i, orig.ret.i);
  EXPECT_EQ(diff.adapted_result.i, orig.ret.i);
  EXPECT_LT(diff.adapted_cycles, diff.original_cycles);
  EXPECT_GT(diff.speedup(), 1.0);
}


TEST(Specializer, FcmHwCyclesRoundsUpFractionalLatency) {
  // Regression: the integer-ceil idiom (lat + period - 1) / period on
  // doubles under-counted whenever the latency was not an integral multiple
  // of the clock period. At 300 MHz the period is 10/3 ns.
  jit::SpecializerConfig config;
  config.woolcano.cpu_clock_hz = 200e6;  // period = 5 ns exactly
  const std::uint32_t overhead = config.woolcano.fcm_overhead_cycles;
  // 10.1 ns at a 5 ns period needs 3 cycles (the old idiom produced 2).
  EXPECT_EQ(jit::fcm_hw_cycles(10.1, config), overhead + 3);
  // Exact multiples stay exact.
  EXPECT_EQ(jit::fcm_hw_cycles(10.0, config), overhead + 2);
  EXPECT_EQ(jit::fcm_hw_cycles(15.0, config), overhead + 3);
  // Sub-period latencies occupy one full cycle; zero clamps to one.
  EXPECT_EQ(jit::fcm_hw_cycles(0.3, config), overhead + 1);
  EXPECT_EQ(jit::fcm_hw_cycles(0.0, config), overhead + 1);
  // Barely past a boundary rounds up.
  EXPECT_EQ(jit::fcm_hw_cycles(5.0001, config), overhead + 2);
}

/// Full structural comparison of two SpecializationResults (everything the
/// bit-identical-parallelism guarantee covers; search_real_ms is measured
/// wall-clock and deliberately excluded).
void expect_spec_equal(const jit::SpecializationResult& a,
                       const jit::SpecializationResult& b) {
  EXPECT_EQ(a.candidates_found, b.candidates_found);
  EXPECT_EQ(a.candidates_selected, b.candidates_selected);
  EXPECT_EQ(a.candidates_failed, b.candidates_failed);
  EXPECT_DOUBLE_EQ(a.predicted_speedup, b.predicted_speedup);
  EXPECT_DOUBLE_EQ(a.sum_const_s, b.sum_const_s);
  EXPECT_DOUBLE_EQ(a.sum_map_s, b.sum_map_s);
  EXPECT_DOUBLE_EQ(a.sum_par_s, b.sum_par_s);
  EXPECT_DOUBLE_EQ(a.sum_total_s, b.sum_total_s);

  ASSERT_EQ(a.implemented.size(), b.implemented.size());
  for (std::size_t i = 0; i < a.implemented.size(); ++i) {
    const auto& x = a.implemented[i];
    const auto& y = b.implemented[i];
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.signature, y.signature);
    EXPECT_EQ(x.cache_hit, y.cache_hit);
    EXPECT_EQ(x.cells, y.cells);
    EXPECT_EQ(x.bitstream_bytes, y.bitstream_bytes);
    EXPECT_EQ(x.hw_cycles, y.hw_cycles);
    EXPECT_DOUBLE_EQ(x.area_slices, y.area_slices);
    EXPECT_DOUBLE_EQ(x.total_seconds(), y.total_seconds());
  }

  const auto& a_cis = a.registry.all();
  const auto& b_cis = b.registry.all();
  ASSERT_EQ(a_cis.size(), b_cis.size());
  for (std::size_t i = 0; i < a_cis.size(); ++i) {
    EXPECT_EQ(a_cis[i].signature, b_cis[i].signature);
    EXPECT_EQ(a_cis[i].hw_cycles, b_cis[i].hw_cycles);
    EXPECT_DOUBLE_EQ(a_cis[i].critical_path_ns, b_cis[i].critical_path_ns);
    EXPECT_EQ(a_cis[i].bitstream_bytes, b_cis[i].bitstream_bytes);
  }
}

/// Cache population (entries, global-LRU order, and counters) comparison.
void expect_cache_equal(const jit::BitstreamCache& a,
                        const jit::BitstreamCache& b) {
  EXPECT_EQ(a.hits(), b.hits());
  EXPECT_EQ(a.misses(), b.misses());
  const auto a_snap = a.snapshot();
  const auto b_snap = b.snapshot();
  ASSERT_EQ(a_snap.size(), b_snap.size());
  for (std::size_t i = 0; i < a_snap.size(); ++i) {
    EXPECT_EQ(a_snap[i].first, b_snap[i].first);
    EXPECT_EQ(a_snap[i].second.hw_cycles, b_snap[i].second.hw_cycles);
    EXPECT_EQ(a_snap[i].second.bitstream.bytes,
              b_snap[i].second.bitstream.bytes);
  }
}

TEST(Specializer, ParallelMatchesSerialOnEmbeddedApps) {
  // The acceptance bar for the parallel pipeline: jobs=4 must produce
  // bit-identical SpecializationResults to jobs=1 — implemented list and
  // order, registry contents, cache population, and predicted speedup.
  for (const char* name : {"adpcm", "fft", "sor", "whetstone"}) {
    SCOPED_TRACE(name);
    const apps::App app = apps::build_app(name);
    vm::Machine machine(app.module);
    machine.run(app.entry, app.datasets[0].args, 1ull << 30);

    jit::BitstreamCache serial_cache, parallel_cache;
    jit::SpecializerConfig serial_cfg;
    serial_cfg.jobs = 1;
    jit::SpecializerConfig parallel_cfg;
    parallel_cfg.jobs = 4;

    const auto serial = jit::specialize(app.module, machine.profile(),
                                        serial_cfg, &serial_cache);
    const auto parallel = jit::specialize(app.module, machine.profile(),
                                          parallel_cfg, &parallel_cache);
    expect_spec_equal(serial, parallel);
    expect_cache_equal(serial_cache, parallel_cache);
  }
}

TEST(Cache, ConcurrentInsertLookupStress) {
  jit::BitstreamCache cache;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 400;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::uint64_t sig = static_cast<std::uint64_t>(i % 64);
        if ((i + t) % 3 == 0) {
          jit::CachedImplementation entry;
          entry.hw_cycles = static_cast<std::uint32_t>(sig + 1);
          entry.bitstream.bytes.assign(16 + sig, 0xCD);
          cache.insert(sig, std::move(entry));
        } else if (const auto hit = cache.lookup(sig)) {
          // An entry observed for signature `sig` must be one some thread
          // actually inserted for it — never a torn or mixed record.
          EXPECT_EQ(hit->hw_cycles, sig + 1);
          EXPECT_EQ(hit->bitstream.bytes.size(), 16 + sig);
        }
        (void)cache.entries();
        if (i % 50 == 0) (void)cache.snapshot();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_LE(cache.entries(), 64u);
  EXPECT_EQ(cache.hits() + cache.misses(),
            [&] {
              std::uint64_t lookups = 0;
              for (int t = 0; t < kThreads; ++t)
                for (int i = 0; i < kOpsPerThread; ++i)
                  if ((i + t) % 3 != 0) ++lookups;
              return lookups;
            }());
}

TEST(Cache, StripedMatchesSingleStripeSerially) {
  // For any serial history, the lock-striped cache must be indistinguishable
  // from the classic single-mutex cache: same counters, same entries, same
  // global-LRU snapshot order, same eviction victims.
  jit::BitstreamCache single(4000, 1);
  jit::BitstreamCache striped(4000, 16);
  support::Xoshiro256 rng(42);
  for (int op = 0; op < 2000; ++op) {
    const std::uint64_t sig = rng.below(48) * 0x9E3779B97F4A7C15ull;
    if (rng.below(3) == 0) {
      jit::CachedImplementation entry;
      entry.hw_cycles = static_cast<std::uint32_t>(1 + (sig & 0xFF));
      entry.bitstream.bytes.assign(64 + (sig & 0x1FF), 0xEE);
      single.insert(sig, entry);
      striped.insert(sig, std::move(entry));
    } else {
      const auto a = single.lookup(sig);
      const auto b = striped.lookup(sig);
      ASSERT_EQ(a.has_value(), b.has_value());
      if (a) EXPECT_EQ(a->hw_cycles, b->hw_cycles);
    }
  }
  EXPECT_EQ(single.entries(), striped.entries());
  EXPECT_EQ(single.bytes(), striped.bytes());
  EXPECT_EQ(single.hits(), striped.hits());
  EXPECT_EQ(single.misses(), striped.misses());
  EXPECT_EQ(single.evictions(), striped.evictions());
  const auto a_snap = single.snapshot();
  const auto b_snap = striped.snapshot();
  ASSERT_EQ(a_snap.size(), b_snap.size());
  for (std::size_t i = 0; i < a_snap.size(); ++i)
    EXPECT_EQ(a_snap[i].first, b_snap[i].first) << "snapshot position " << i;
}

TEST(Cache, ConcurrentBoundedCapacityStress) {
  // Hammer a capacity-bounded striped cache from many threads: eviction
  // takes all stripe locks while lookups/inserts hold single stripes, so
  // this exercises the cross-stripe path. Afterwards the global byte/entry
  // accounting must be consistent and within capacity.
  constexpr std::size_t kCapacity = 8 * 1024;
  jit::BitstreamCache cache(kCapacity, 8);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      support::Xoshiro256 rng(0xBEEF + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::uint64_t sig = rng.below(96) * 0x9E3779B97F4A7C15ull;
        if (rng.below(2) == 0) {
          jit::CachedImplementation entry;
          entry.hw_cycles = static_cast<std::uint32_t>(1 + (sig & 0xFF));
          entry.bitstream.bytes.assign(128 + (sig & 0xFF), 0xAB);
          cache.insert(sig, std::move(entry));
        } else if (const auto hit = cache.lookup(sig)) {
          EXPECT_EQ(hit->hw_cycles, 1 + (sig & 0xFF));
        }
        if (i % 100 == 0) (void)cache.snapshot();
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_LE(cache.bytes(), kCapacity);
  const auto snap = cache.snapshot();
  EXPECT_EQ(snap.size(), cache.entries());
  std::size_t bytes = 0;
  for (const auto& [sig, entry] : snap) {
    EXPECT_EQ(entry.hw_cycles, 1 + (sig & 0xFF));
    bytes += entry.bitstream.size_bytes();
  }
  EXPECT_EQ(bytes, cache.bytes());
}

/// Thread-safe observer that records a flat event log for order assertions.
struct RecordingObserver final : jit::PipelineObserver {
  std::mutex mu;
  std::vector<std::string> events;

  void log(std::string event) {
    std::lock_guard<std::mutex> lock(mu);
    events.push_back(std::move(event));
  }
  void on_phase_enter(jit::PipelinePhase phase) override {
    log(std::string("enter:") + jit::phase_name(phase));
  }
  void on_phase_exit(jit::PipelinePhase phase, double real_ms) override {
    EXPECT_GE(real_ms, 0.0);
    log(std::string("exit:") + jit::phase_name(phase));
  }
  void on_block_searched(std::size_t block, std::size_t, double real_ms) override {
    EXPECT_GE(real_ms, 0.0);
    log("searched:" + std::to_string(block));
  }
  void on_candidate_dispatched(std::uint64_t, bool speculative) override {
    log(speculative ? "dispatch:spec" : "dispatch");
  }
  void on_candidate_netlist(const std::string&, std::uint64_t) override {
    log("netlist");
  }
  void on_candidate_implemented(const std::string&, std::uint64_t,
                                const cad::ImplementationResult&) override {
    log("implemented");
  }
  void on_candidate_failed(const std::string&, std::uint64_t) override {
    log("failed");
  }
  void on_cache_hit(const std::string&, std::uint64_t) override {
    log("cache-hit");
  }

  [[nodiscard]] std::ptrdiff_t index_of(const std::string& event) const {
    for (std::size_t i = 0; i < events.size(); ++i)
      if (events[i] == event) return static_cast<std::ptrdiff_t>(i);
    return -1;
  }
  [[nodiscard]] std::size_t count_of(const std::string& event) const {
    std::size_t n = 0;
    for (const auto& e : events)
      if (e == event) ++n;
    return n;
  }
};

TEST(Pipeline, ObserverEventsAreOrderedInStagedRun) {
  const Module m = make_app();
  vm::Machine machine(m);
  const vm::Slot args[] = {vm::Slot::of_int(500)};
  machine.run("main", args);

  jit::SpecializerConfig config;
  config.jobs = 1;  // strictly serial: a total order over all events
  RecordingObserver rec;
  jit::SpecializationPipeline pipeline(config);
  pipeline.add_observer(&rec);
  const auto result = pipeline.run(m, machine.profile());
  ASSERT_GE(result.candidates_selected, 1u);

  // Phase windows are ordered and the last event closes Adaptation.
  const auto enter_search = rec.index_of("enter:candidate-search");
  const auto exit_search = rec.index_of("exit:candidate-search");
  const auto enter_impl = rec.index_of("enter:implementation");
  const auto exit_impl = rec.index_of("exit:implementation");
  const auto enter_adapt = rec.index_of("enter:adaptation");
  const auto exit_adapt = rec.index_of("exit:adaptation");
  EXPECT_EQ(enter_search, 0);
  ASSERT_NE(exit_search, -1);
  ASSERT_NE(enter_impl, -1);
  ASSERT_NE(exit_impl, -1);
  EXPECT_LT(exit_search, enter_impl);  // the stages run in sequence
  EXPECT_LT(enter_impl, exit_impl);
  EXPECT_LT(exit_impl, enter_adapt);
  EXPECT_LT(enter_adapt, exit_adapt);
  EXPECT_EQ(exit_adapt, static_cast<std::ptrdiff_t>(rec.events.size()) - 1);

  // Per-candidate CAD events all land inside the Implementation window, in
  // dispatch -> netlist -> implemented order per candidate (serial run).
  EXPECT_EQ(rec.count_of("dispatch:spec"), 0u);
  EXPECT_GE(rec.count_of("dispatch"), 1u);
  EXPECT_EQ(rec.count_of("netlist"), rec.count_of("dispatch"));
  EXPECT_EQ(rec.count_of("implemented") + rec.count_of("failed"),
            rec.count_of("dispatch"));
  for (std::size_t i = 0; i < rec.events.size(); ++i) {
    const auto& e = rec.events[i];
    if (e == "dispatch" || e == "netlist" || e == "implemented" ||
        e == "failed") {
      EXPECT_GT(static_cast<std::ptrdiff_t>(i), enter_impl) << e;
      EXPECT_LT(static_cast<std::ptrdiff_t>(i), exit_impl) << e;
    }
    if (e.rfind("searched:", 0) == 0) {
      EXPECT_GT(static_cast<std::ptrdiff_t>(i), enter_search);
      EXPECT_LT(static_cast<std::ptrdiff_t>(i), exit_search);
    }
  }
}

TEST(Pipeline, ParallelRunIsStaged) {
  // CAD starts only once candidate search has produced the final selection,
  // at any worker count: the Implementation window opens after
  // CandidateSearch closes and no dispatch is speculative.
  const Module m = make_app();
  vm::Machine machine(m);
  const vm::Slot args[] = {vm::Slot::of_int(500)};
  machine.run("main", args);

  jit::SpecializerConfig config;
  config.jobs = 2;
  RecordingObserver rec;
  jit::SpecializationPipeline pipeline(config);
  pipeline.add_observer(&rec);
  const auto result = pipeline.run(m, machine.profile());
  ASSERT_GE(result.candidates_selected, 1u);

  const auto exit_search = rec.index_of("exit:candidate-search");
  const auto enter_impl = rec.index_of("enter:implementation");
  ASSERT_NE(exit_search, -1);
  ASSERT_NE(enter_impl, -1);
  EXPECT_LT(exit_search, enter_impl);
  EXPECT_GE(rec.count_of("dispatch"), 1u);
  EXPECT_EQ(rec.count_of("dispatch:spec"), 0u);
}

TEST(Pipeline, DispatchesLargestEstimatedAreaFirst) {
  // The CAD sweep is dispatched largest estimated design first, so a large
  // design never starts after the small ones of its sweep. whetstone's
  // largest design (2,770 slices) comes last in selection order.
  const apps::App app = apps::build_app("whetstone");
  vm::Machine machine(app.module);
  machine.run(app.entry, app.datasets[0].args, 1ull << 30);
  const vm::Profile profile = machine.profile();

  jit::SpecializerConfig config;
  hwlib::CircuitDb db;
  jit::PipelineObserver quiet;
  const jit::SearchArtifact art =
      jit::CandidateSearchStage(config).run(app.module, profile, db, quiet);
  std::unordered_map<std::uint64_t, double> area;
  for (const std::size_t idx : art.selection.chosen)
    area.emplace(art.scored[idx].signature, art.scored[idx].area_slices);

  // Dispatch events fire on the pipeline thread, so no lock is needed.
  struct DispatchLog final : jit::PipelineObserver {
    std::vector<std::uint64_t> signatures;
    void on_candidate_dispatched(std::uint64_t sig, bool) override {
      signatures.push_back(sig);
    }
  };
  for (const unsigned jobs : {1u, 2u}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    config.jobs = jobs;
    DispatchLog log;
    jit::SpecializationPipeline pipeline(config);
    pipeline.add_observer(&log);
    static_cast<void>(pipeline.run(app.module, profile));
    ASSERT_GE(log.signatures.size(), 2u);
    for (std::size_t i = 0; i < log.signatures.size(); ++i) {
      ASSERT_EQ(area.count(log.signatures[i]), 1u) << "dispatch " << i;
      if (i > 0) {
        EXPECT_GE(area.at(log.signatures[i - 1]), area.at(log.signatures[i]))
            << "dispatch " << i;
      }
    }
  }
}

TEST(Pipeline, WarmRespecializationRunsNoCad) {
  // A second specialization against the cache the first one filled must be
  // answered from the cache alone: no CAD dispatch, every implemented
  // candidate a hit. In 188.ammp and 444.namd some block's provisional
  // greedy pick is dropped by the final selection; a pipeline that started
  // CAD on provisional picks would re-run it here, since only the final
  // selection is cached.
  for (const char* name : {"188.ammp", "444.namd"}) {
    SCOPED_TRACE(name);
    const apps::App app = apps::build_app(name);
    vm::Machine machine(app.module);
    machine.run(app.entry, app.datasets[0].args, 1ull << 30);

    jit::SpecializerConfig config;
    config.jobs = 2;
    jit::BitstreamCache cache;
    const auto cold = jit::specialize(app.module, machine.profile(), config,
                                      &cache);
    ASSERT_FALSE(cold.implemented.empty());
    ASSERT_EQ(cold.candidates_failed, 0u);

    RecordingObserver rec;
    jit::SpecializationPipeline pipeline(config, &cache);
    pipeline.add_observer(&rec);
    const auto warm = pipeline.run(app.module, machine.profile());
    EXPECT_EQ(rec.count_of("dispatch"), 0u);
    EXPECT_EQ(rec.count_of("dispatch:spec"), 0u);
    ASSERT_EQ(warm.implemented.size(), cold.implemented.size());
    for (const auto& impl : warm.implemented)
      EXPECT_TRUE(impl.cache_hit) << impl.name;
    EXPECT_EQ(rec.count_of("cache-hit"), warm.implemented.size());
  }
}

TEST(Specializer, UnionMisoFindsLargerOrEqualCandidates) {
  const Module m = make_app();
  vm::Machine machine(m);
  const vm::Slot args[] = {vm::Slot::of_int(1000)};
  machine.run("main", args);

  jit::SpecializerConfig maxm;
  maxm.implement_hardware = false;
  jit::SpecializerConfig unionm = maxm;
  unionm.identify = jit::SpecializerConfig::Identify::UnionMiso;

  const auto a = jit::specialize(m, machine.profile(), maxm);
  const auto b = jit::specialize(m, machine.profile(), unionm);
  EXPECT_LE(b.candidates_found, a.candidates_found);
  EXPECT_GE(b.predicted_speedup, a.predicted_speedup * 0.999)
      << "larger candidates must not lose speedup";
  // Semantics still hold.
  const auto diff =
      woolcano::run_adapted(m, b.rewritten, b.registry, "main", args);
  EXPECT_EQ(diff.original_result.i, diff.adapted_result.i);
}

TEST(Specializer, CacheSkipsGeneration) {
  const Module m = make_app();
  vm::Machine machine(m);
  const vm::Slot args[] = {vm::Slot::of_int(500)};
  machine.run("main", args);

  jit::BitstreamCache cache;
  jit::SpecializerConfig config;
  const auto first = jit::specialize(m, machine.profile(), config, &cache);
  EXPECT_GT(first.sum_total_s, 0.0);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_GT(cache.entries(), 0u);

  const auto second = jit::specialize(m, machine.profile(), config, &cache);
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_DOUBLE_EQ(second.sum_total_s, 0.0);  // all hits: no generation cost
  ASSERT_FALSE(second.implemented.empty());
  EXPECT_TRUE(second.implemented[0].cache_hit);
  // The cached hardware behaves identically.
  const auto diff = woolcano::run_adapted(m, second.rewritten, second.registry,
                                          "main", args);
  EXPECT_EQ(diff.original_result.i, diff.adapted_result.i);
}

TEST(Specializer, UpperBoundBeatsOrMatchesSelected) {
  const Module m = make_app();
  vm::Machine machine(m);
  const vm::Slot args[] = {vm::Slot::of_int(1000)};
  machine.run("main", args);

  const auto ub = jit::asip_upper_bound(m, machine.profile());
  EXPECT_GE(ub.candidates, 1u);
  EXPECT_GT(ub.ratio(), 1.0);

  jit::SpecializerConfig config;
  config.implement_hardware = false;  // estimation-based, like the bound
  const auto sel = jit::specialize(m, machine.profile(), config);
  EXPECT_GE(ub.ratio(), sel.predicted_speedup * 0.999);
}

TEST(Cache, LruEviction) {
  jit::BitstreamCache cache(1000);
  auto entry = [](std::size_t bytes) {
    jit::CachedImplementation e;
    e.bitstream.bytes.assign(bytes, 0xAB);
    return e;
  };
  cache.insert(1, entry(400));
  cache.insert(2, entry(400));
  EXPECT_EQ(cache.entries(), 2u);
  (void)cache.lookup(1);            // refresh 1 -> LRU order: 2, 1
  cache.insert(3, entry(400));      // evicts 2
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_LE(cache.bytes(), 1000u);
}

TEST(Cache, HitMissAccounting) {
  jit::BitstreamCache cache;
  EXPECT_FALSE(cache.lookup(42).has_value());
  EXPECT_EQ(cache.misses(), 1u);
  jit::CachedImplementation e;
  e.generation_seconds = 12.5;
  cache.insert(42, e);
  const auto hit = cache.lookup(42);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->generation_seconds, 12.5);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(Cache, ClearKeepsAccountingConsistent) {
  jit::BitstreamCache cache;
  jit::CachedImplementation e;
  e.bitstream.bytes.assign(100, 0xCD);
  cache.insert(1, e);
  cache.insert(2, e);
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.bytes(), 200u);

  cache.clear();
  EXPECT_FALSE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.evictions(), 0u);  // clearing is not an eviction
}

TEST(BreakEven, ClosedFormCases) {
  using vm::CoverageClass;
  // One live block, 10 s per execution, 2x speedup -> saves 5 s per scale
  // unit. Overhead 50 s -> x = 10, break-even = 100 s.
  const jit::BlockTerm live{10.0, CoverageClass::Live, 2.0};
  {
    const jit::BlockTerm terms[] = {live};
    EXPECT_DOUBLE_EQ(jit::break_even_seconds(terms, 50.0), 100.0);
  }
  // Const code contributes its one-off saving and execution time.
  {
    const jit::BlockTerm terms[] = {live,
                                    {4.0, CoverageClass::Const, 2.0}};
    // const saves 2 s once; remaining 48 s at 5 s/unit -> x = 9.6.
    EXPECT_DOUBLE_EQ(jit::break_even_seconds(terms, 50.0), 4.0 + 9.6 * 10.0);
  }
  // Dead code contributes nothing.
  {
    const jit::BlockTerm terms[] = {live, {100.0, CoverageClass::Dead, 5.0}};
    EXPECT_DOUBLE_EQ(jit::break_even_seconds(terms, 50.0), 100.0);
  }
  // No speedup anywhere -> never breaks even.
  {
    const jit::BlockTerm terms[] = {{10.0, CoverageClass::Live, 1.0}};
    EXPECT_EQ(jit::break_even_seconds(terms, 1.0), jit::kNeverBreaksEven);
  }
  // Overhead already covered by const savings -> first execution suffices.
  {
    const jit::BlockTerm terms[] = {{10.0, CoverageClass::Const, 2.0}};
    EXPECT_DOUBLE_EQ(jit::break_even_seconds(terms, 3.0), 10.0);
  }
}

TEST(BreakEven, MonotoneInOverheadAndSpeedup) {
  using vm::CoverageClass;
  const jit::BlockTerm base{5.0, CoverageClass::Live, 3.0};
  double prev = 0.0;
  for (double overhead : {10.0, 20.0, 40.0, 80.0}) {
    const jit::BlockTerm terms[] = {base};
    const double be = jit::break_even_seconds(terms, overhead);
    EXPECT_GT(be, prev);
    prev = be;
  }
  // Higher speedup -> earlier break-even.
  const jit::BlockTerm faster{5.0, CoverageClass::Live, 6.0};
  const jit::BlockTerm t1[] = {base}, t2[] = {faster};
  EXPECT_GT(jit::break_even_seconds(t1, 100.0),
            jit::break_even_seconds(t2, 100.0));
}

TEST(Reconfig, SlotEvictionAndTiming) {
  woolcano::WoolcanoConfig cfg;
  cfg.ci_slots = 2;
  cfg.icap_bytes_per_second = 1000.0;
  woolcano::ReconfigController ctl(cfg);

  auto ci = [](std::uint32_t id, std::size_t bytes) {
    woolcano::CustomInstruction c;
    c.id = id;
    c.bitstream_bytes = bytes;
    return c;
  };
  EXPECT_DOUBLE_EQ(ctl.load(ci(0, 500)), 0.5);
  EXPECT_DOUBLE_EQ(ctl.load(ci(1, 1000)), 1.0);
  EXPECT_DOUBLE_EQ(ctl.load(ci(0, 500)), 0.0);  // resident
  EXPECT_DOUBLE_EQ(ctl.load(ci(2, 2000)), 2.0); // evicts 1 (LRU)
  EXPECT_FALSE(ctl.resident(1));
  EXPECT_TRUE(ctl.resident(0));
  EXPECT_TRUE(ctl.resident(2));
  EXPECT_EQ(ctl.evictions(), 1u);
  EXPECT_DOUBLE_EQ(ctl.total_seconds(), 3.5);
}

TEST(Rewriter, RejectsOverlap) {
  const Module m = make_app();
  const dfg::BlockDfg graph(m.functions[0], 1);
  auto misos = ise::find_max_misos(graph);
  ASSERT_FALSE(misos.empty());
  // Register the same candidate twice -> overlapping coverage.
  woolcano::CiRegistry reg;
  for (int k = 0; k < 2; ++k) {
    woolcano::CustomInstruction ci;
    ci.candidate = misos[0];
    ci.candidate.function = 0;
    ci.program = woolcano::snapshot_program(graph, misos[0]);
    reg.add(std::move(ci));
  }
  EXPECT_THROW((void)woolcano::rewrite_module(m, reg), std::invalid_argument);
}

TEST(Snapshot, EvaluatesLikeInterpreter) {
  // Property sweep: random inputs through the snapshot vs. direct IR
  // execution of a pure function wrapping the same expression.
  Module m;
  FunctionBuilder fb(m, "f", Type::I32, {Type::I32, Type::I32});
  const ValueId a = fb.binop(Opcode::Mul, fb.param(0), fb.const_int(Type::I32, 31));
  const ValueId b = fb.binop(Opcode::Add, a, fb.param(1));
  const ValueId c = fb.binop(Opcode::Xor, b, fb.const_int(Type::I32, 0x55));
  const ValueId d = fb.binop(Opcode::AShr, c, fb.const_int(Type::I32, 3));
  fb.ret(d);
  fb.finish();
  const dfg::BlockDfg graph(m.functions[0], 0);
  auto misos = ise::find_max_misos(graph);
  ASSERT_EQ(misos.size(), 1u);
  const auto program = woolcano::snapshot_program(graph, misos[0]);

  vm::Machine machine(m);
  support::Xoshiro256 rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    const auto x = static_cast<std::int32_t>(rng());
    const auto y = static_cast<std::int32_t>(rng());
    const vm::Slot args[] = {vm::Slot::of_int(x), vm::Slot::of_int(y)};
    const auto direct = machine.run("f", args);
    // Snapshot inputs follow cand.inputs order.
    std::vector<vm::Slot> inputs;
    for (ValueId in : misos[0].inputs) {
      const auto& def = m.functions[0].values[in];
      if (def.op == Opcode::Param)
        inputs.push_back(args[in]);
      else if (def.op == Opcode::ConstInt)
        inputs.push_back(vm::Slot::of_int(def.imm));
    }
    const vm::Slot out = program.evaluate(inputs);
    EXPECT_EQ(out.i, direct.ret.i) << "x=" << x << " y=" << y;
  }
}

}  // namespace
