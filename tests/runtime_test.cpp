#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>

#include "ir/builder.hpp"
#include "jit/breakeven.hpp"
#include "jit/cache_io.hpp"
#include "jit/runtime.hpp"

namespace {

using namespace jitise;
using namespace jitise::ir;

Module make_app() {
  Module m;
  m.name = "rt_app";
  FunctionBuilder fb(m, "main", Type::I32, {Type::I32});
  const BlockId hot = fb.new_block("hot");
  const BlockId exit = fb.new_block("exit");
  fb.br(hot);
  fb.set_insert(hot);
  const ValueId i = fb.phi(Type::I32);
  const ValueId acc = fb.phi(Type::I32);
  const ValueId t1 = fb.binop(Opcode::Mul, acc, fb.const_int(Type::I32, 31));
  const ValueId t2 = fb.binop(Opcode::SDiv, t1, fb.const_int(Type::I32, 7));
  const ValueId t3 = fb.binop(Opcode::Xor, t2, i);
  const ValueId inext = fb.binop(Opcode::Add, i, fb.const_int(Type::I32, 1));
  const ValueId cont = fb.icmp(ICmpPred::Slt, inext, fb.param(0));
  fb.condbr(cont, hot, exit);
  fb.phi_incoming(i, fb.const_int(Type::I32, 0), fb.entry());
  fb.phi_incoming(i, inext, hot);
  fb.phi_incoming(acc, fb.const_int(Type::I32, 9), fb.entry());
  fb.phi_incoming(acc, t3, hot);
  fb.set_insert(exit);
  fb.ret(t3);
  fb.finish();
  return m;
}

TEST(AdaptiveRuntime, TimelineIsConsistent) {
  const Module m = make_app();
  const vm::Slot args[] = {vm::Slot::of_int(3000)};
  jit::AdaptiveRunConfig config;
  config.workload_executions = 2'000'000;
  const auto report = jit::simulate_adaptive_run(m, "main", args, config);

  ASSERT_FALSE(report.events.empty());
  // Events are time-ordered.
  for (std::size_t i = 1; i < report.events.size(); ++i)
    EXPECT_GE(report.events[i].at_seconds, report.events[i - 1].at_seconds);

  EXPECT_GT(report.one_execution_s, 0.0);
  EXPECT_GT(report.speedup, 1.0);
  EXPECT_LT(report.accelerated_execution_s, report.one_execution_s);
  EXPECT_GT(report.specialization_ready_at, report.one_execution_s);

  // Break-even must come after the hardware is ready and the adaptive
  // workload must beat VM-only for a large enough workload.
  EXPECT_GT(report.break_even_at, report.specialization_ready_at);
  EXPECT_LT(report.adaptive_total_s, report.vm_only_total_s);
}

TEST(AdaptiveRuntime, SmallWorkloadNeverWins) {
  const Module m = make_app();
  const vm::Slot args[] = {vm::Slot::of_int(100)};
  jit::AdaptiveRunConfig config;
  config.workload_executions = 3;  // done long before bitstreams are ready
  const auto report = jit::simulate_adaptive_run(m, "main", args, config);
  EXPECT_DOUBLE_EQ(report.adaptive_total_s, report.vm_only_total_s);
}

TEST(AdaptiveRuntime, BreakEvenExactMultipleDoesNotOvercount) {
  // Regression: uint64(overhead / saved) + 1 overcounted by one execution
  // whenever the overhead was an exact multiple of the per-execution saving.
  EXPECT_EQ(jit::executions_to_break_even(100.0, 25.0), 4u);
  EXPECT_EQ(jit::executions_to_break_even(100.0, 50.0), 2u);
  EXPECT_EQ(jit::executions_to_break_even(100.0, 100.0), 1u);
  // Non-multiples still round up.
  EXPECT_EQ(jit::executions_to_break_even(100.0, 30.0), 4u);
  EXPECT_EQ(jit::executions_to_break_even(100.0, 99.0), 2u);
  // Zero overhead is repaid before the first accelerated execution.
  EXPECT_EQ(jit::executions_to_break_even(0.0, 5.0), 0u);
}

TEST(AdaptiveRuntime, WarmCacheSkipsGeneration) {
  // Regression: simulate_adaptive_run never passed a BitstreamCache to
  // specialize(), so the adaptive timeline could not model warm-cache runs.
  const Module m = make_app();
  const vm::Slot args[] = {vm::Slot::of_int(3000)};
  jit::BitstreamCache cache;
  jit::AdaptiveRunConfig config;
  config.cache = &cache;

  const auto cold = jit::simulate_adaptive_run(m, "main", args, config);
  EXPECT_GT(cache.entries(), 0u);
  EXPECT_EQ(cache.hits(), 0u);

  const auto warm = jit::simulate_adaptive_run(m, "main", args, config);
  EXPECT_GT(cache.hits(), 0u);
  // All bitstreams come from the cache: no generation overhead in the
  // timeline, so the hardware is ready far earlier and the same speedup
  // breaks even sooner.
  EXPECT_LT(warm.specialization_ready_at, cold.specialization_ready_at);
  EXPECT_LE(warm.break_even_at, cold.break_even_at);
  EXPECT_DOUBLE_EQ(warm.speedup, cold.speedup);
}

TEST(CacheIo, SaveLoadRoundTrip) {
  jit::BitstreamCache cache;
  jit::CachedImplementation entry;
  entry.hw_cycles = 9;
  entry.critical_path_ns = 17.5;
  entry.area_slices = 321.0;
  entry.cells = 44;
  entry.generation_seconds = 212.25;
  entry.bitstream.part = "xc4vfx100-10-ff1152";
  entry.bitstream.region_width = 32;
  entry.bitstream.region_height = 80;
  entry.bitstream.frame_count = 32;
  entry.bitstream.bytes = {1, 2, 3, 4, 5, 6, 7, 8};
  entry.bitstream.crc32 =
      fpga::crc32(entry.bitstream.bytes.data(), entry.bitstream.bytes.size() - 4);
  cache.insert(0xDEADBEEFCAFEull, entry);
  entry.hw_cycles = 4;
  cache.insert(0x1234ull, entry);

  const std::string path = "/tmp/jitise_cache_test.bin";
  jit::save_cache(cache, path);

  jit::BitstreamCache loaded;
  const jit::CacheLoadReport report = jit::load_cache(loaded, path);
  EXPECT_EQ(report.records, 2u);
  EXPECT_FALSE(report.recovered_truncation);
  EXPECT_EQ(loaded.entries(), 2u);
  const auto hit = loaded.lookup(0xDEADBEEFCAFEull);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->hw_cycles, 9u);
  EXPECT_DOUBLE_EQ(hit->generation_seconds, 212.25);
  EXPECT_EQ(hit->bitstream.bytes, (std::vector<std::uint8_t>{1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_EQ(hit->bitstream.part, "xc4vfx100-10-ff1152");
  std::remove(path.c_str());
}

TEST(CacheIo, DetectsCorruption) {
  jit::BitstreamCache cache;
  jit::CachedImplementation entry;
  entry.bitstream.bytes = {10, 20, 30, 40, 50, 60, 70, 80};
  entry.bitstream.crc32 =
      fpga::crc32(entry.bitstream.bytes.data(), entry.bitstream.bytes.size() - 4);
  cache.insert(7, entry);
  const std::string path = "/tmp/jitise_cache_corrupt.bin";
  jit::save_cache(cache, path);

  // Flip a payload byte near the end of the file.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, -7, SEEK_END);  // inside the CRC-protected payload
    std::fputc(0xFF, f);
    std::fclose(f);
  }
  // The record CRC catches the flip, and recovery keeps the valid prefix
  // (here: nothing) instead of throwing — the corrupt entry must never
  // surface.
  jit::BitstreamCache loaded;
  const jit::CacheLoadReport report = jit::load_cache(loaded, path);
  EXPECT_TRUE(report.recovered_truncation);
  EXPECT_EQ(loaded.entries(), 0u);
  EXPECT_FALSE(loaded.lookup(7).has_value());
  std::remove(path.c_str());
}

TEST(CacheIo, MissingFileThrows) {
  // An unopenable path throws and leaves the cache untouched.
  jit::BitstreamCache cache;
  cache.insert(42, jit::CachedImplementation{});
  EXPECT_THROW(jit::load_cache(cache, "/nonexistent/dir/cache.bin"),
               std::runtime_error);
  EXPECT_EQ(cache.entries(), 1u);
}

}  // namespace
