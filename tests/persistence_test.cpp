// Crash-safety and corruption tests for the journaled bitstream-cache
// persistence (jit/cache_io.*), driven by the FaultyFile fault-injection
// shim: every-truncation-point recovery, a single-bit-flip corpus, injected
// mid-save crashes, refusal of other format versions, compaction, and the
// pipeline's persistence tail. Randomized corpora read JITISE_FAULT_SEED
// (the CI soak loop runs 25 seeds) so repeated runs explore different caches
// and golden journals.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault_injection.hpp"
#include "fpga/bitgen.hpp"
#include "ir/builder.hpp"
#include "jit/cache_io.hpp"
#include "jit/pipeline.hpp"
#include "support/rng.hpp"
#include "vm/interpreter.hpp"

namespace {

using namespace jitise;
using jitise::testing::FaultyFile;
using jitise::testing::KillAfterWrites;

std::uint64_t fault_seed() {
  const char* env = std::getenv("JITISE_FAULT_SEED");
  if (env == nullptr) return 1;
  const std::uint64_t seed = std::strtoull(env, nullptr, 10);
  return seed == 0 ? 1 : seed;
}

/// A temp path that is removed on scope exit (and pre-cleaned on entry, so a
/// crashed previous run cannot leak state into this one).
struct TempPath {
  explicit TempPath(std::string p) : path(std::move(p)) {
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
  }
  ~TempPath() {
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
  }
  const std::string path;
};

jit::CachedImplementation make_entry(support::Xoshiro256& rng,
                                     std::size_t payload_bytes) {
  jit::CachedImplementation e;
  e.hw_cycles = static_cast<std::uint32_t>(1 + rng.below(40));
  e.critical_path_ns = static_cast<double>(rng.below(1000)) / 10.0;
  e.area_slices = static_cast<double>(rng.below(500)) / 2.0;
  e.cells = static_cast<std::size_t>(rng.below(64));
  e.generation_seconds = static_cast<double>(rng.below(100000)) / 50.0;
  e.bitstream.part = "xc4vfx" + std::to_string(rng.below(1000));
  e.bitstream.region_width = static_cast<std::uint16_t>(1 + rng.below(64));
  e.bitstream.region_height = static_cast<std::uint16_t>(1 + rng.below(96));
  e.bitstream.frame_count = static_cast<std::uint32_t>(rng.below(128));
  e.bitstream.bytes.resize(payload_bytes);
  for (auto& b : e.bitstream.bytes)
    b = static_cast<std::uint8_t>(rng.below(256));
  // The loader cross-checks the bitstream's own CRC word: it covers the
  // payload minus the trailing CRC word (bitgen's layout), degenerating to
  // the empty-message CRC for 1-3 byte payloads and to "unchecked" for
  // empty ones.
  const std::size_t body = payload_bytes >= 4 ? payload_bytes - 4 : 0;
  e.bitstream.crc32 =
      payload_bytes > 0 ? fpga::crc32(e.bitstream.bytes.data(), body) : 0;
  return e;
}

void expect_entry_eq(const jit::CachedImplementation& a,
                     const jit::CachedImplementation& b) {
  EXPECT_EQ(a.hw_cycles, b.hw_cycles);
  EXPECT_DOUBLE_EQ(a.critical_path_ns, b.critical_path_ns);
  EXPECT_DOUBLE_EQ(a.area_slices, b.area_slices);
  EXPECT_EQ(a.cells, b.cells);
  EXPECT_DOUBLE_EQ(a.generation_seconds, b.generation_seconds);
  EXPECT_EQ(a.bitstream.part, b.bitstream.part);
  EXPECT_EQ(a.bitstream.region_width, b.bitstream.region_width);
  EXPECT_EQ(a.bitstream.region_height, b.bitstream.region_height);
  EXPECT_EQ(a.bitstream.frame_count, b.bitstream.frame_count);
  EXPECT_EQ(a.bitstream.crc32, b.bitstream.crc32);
  EXPECT_EQ(a.bitstream.bytes, b.bitstream.bytes);
}

/// A journal built one synced record at a time, so `boundaries[k]` is the
/// file offset right after record k (boundaries[0] == 8, the header) — the
/// ground truth the truncation and bit-flip sweeps measure recovery against.
struct GoldenJournal {
  std::vector<std::uint64_t> signatures;  // journal order
  std::map<std::uint64_t, jit::CachedImplementation> entries;
  std::vector<std::size_t> boundaries;
};

GoldenJournal build_golden(const std::string& path, std::size_t n,
                           std::uint64_t seed) {
  GoldenJournal g;
  support::Xoshiro256 rng(seed);
  jit::BitstreamCache cache;
  jit::CacheJournal journal(path);
  journal.attach(cache);
  g.boundaries.push_back(FaultyFile::size(path));
  const std::size_t payloads[] = {0, 1, 3, 8, 16, 24};
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t sig = 0x5EED0000u + i * 0x9E37u;
    const auto entry = make_entry(rng, payloads[i % std::size(payloads)]);
    cache.insert(sig, entry);
    journal.sync();
    g.boundaries.push_back(FaultyFile::size(path));
    g.signatures.push_back(sig);
    g.entries.emplace(sig, entry);
  }
  return g;
}

// -- Tentpole: every-truncation-point recovery ------------------------------

TEST(Journal, EveryTruncationPointKeepsExactlyTheIntactPrefix) {
  TempPath golden("/tmp/jitise_trunc_golden.jrnl");
  TempPath probe("/tmp/jitise_trunc_case.jrnl");
  const auto g = build_golden(golden.path, 6, fault_seed());
  const auto bytes = FaultyFile::read_all(golden.path);
  ASSERT_EQ(g.boundaries.back(), bytes.size());

  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    FaultyFile::write_all(
        probe.path,
        {bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(cut)});
    jit::BitstreamCache loaded;
    if (cut < 8) {
      // Not even a header: nothing to salvage, the load reports the file
      // unusable without fabricating an empty cache file.
      EXPECT_THROW(jit::load_cache(loaded, probe.path), std::runtime_error)
          << "cut=" << cut;
      continue;
    }
    const jit::CacheLoadReport report = jit::load_cache(loaded, probe.path);
    // Exactly the records wholly below the cut survive — no clear-all, no
    // partial entry.
    std::size_t intact = 0;
    while (intact + 1 < g.boundaries.size() &&
           g.boundaries[intact + 1] <= cut)
      ++intact;
    EXPECT_EQ(loaded.entries(), intact) << "cut=" << cut;
    EXPECT_EQ(report.records, intact) << "cut=" << cut;
    for (std::size_t i = 0; i < g.signatures.size(); ++i) {
      const auto hit = loaded.lookup(g.signatures[i]);
      if (i < intact) {
        ASSERT_TRUE(hit.has_value()) << "cut=" << cut << " record=" << i;
        expect_entry_eq(*hit, g.entries.at(g.signatures[i]));
      } else {
        EXPECT_FALSE(hit.has_value()) << "cut=" << cut << " record=" << i;
      }
    }
    EXPECT_EQ(report.recovered_truncation, cut != g.boundaries[intact])
        << "cut=" << cut;
    EXPECT_EQ(report.valid_bytes, g.boundaries[intact]) << "cut=" << cut;
  }
}

// -- Satellite: single-bit-flip corpus --------------------------------------

TEST(Journal, SingleBitFlipNeverLoadsCorruptEntryOrLosesPrefix) {
  TempPath golden("/tmp/jitise_flip_golden.jrnl");
  TempPath probe("/tmp/jitise_flip_case.jrnl");
  const auto g = build_golden(golden.path, 6, fault_seed() ^ 0xF11Fu);
  const auto bytes = FaultyFile::read_all(golden.path);

  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    for (unsigned bit = 0; bit < 8; ++bit) {
      auto corrupt = bytes;
      corrupt[byte] ^= static_cast<std::uint8_t>(1u << bit);
      FaultyFile::write_all(probe.path, corrupt);
      jit::BitstreamCache loaded;
      if (byte < 8) {
        // Header damage: no entries precede it, so a hard error loses
        // nothing.
        EXPECT_THROW(jit::load_cache(loaded, probe.path), std::runtime_error);
        continue;
      }
      ASSERT_NO_THROW(jit::load_cache(loaded, probe.path))
          << "byte=" << byte << " bit=" << bit;
      // The record containing the flip: CRC-32 detects every single-bit
      // error, so it must not load; everything before it must.
      std::size_t hit_record = 0;
      while (g.boundaries[hit_record + 1] <= byte) ++hit_record;
      EXPECT_EQ(loaded.entries(), hit_record)
          << "byte=" << byte << " bit=" << bit;
      for (std::size_t i = 0; i < hit_record; ++i) {
        const auto hit = loaded.lookup(g.signatures[i]);
        ASSERT_TRUE(hit.has_value()) << "byte=" << byte << " bit=" << bit;
        expect_entry_eq(*hit, g.entries.at(g.signatures[i]));
      }
      EXPECT_FALSE(loaded.lookup(g.signatures[hit_record]).has_value())
          << "byte=" << byte << " bit=" << bit;
    }
  }
}

// -- Satellite: atomic saves under injected crashes -------------------------

TEST(Journal, KilledSaveNeverDestroysThePreviousFile) {
  TempPath file("/tmp/jitise_atomic_save.jrnl");
  support::Xoshiro256 rng(fault_seed() ^ 0xA70Cu);

  jit::BitstreamCache good;
  for (std::uint64_t s = 1; s <= 3; ++s) good.insert(s, make_entry(rng, 16));
  jit::save_cache(good, file.path);
  const auto before = FaultyFile::read_all(file.path);

  jit::BitstreamCache bigger;
  for (std::uint64_t s = 10; s <= 20; ++s)
    bigger.insert(s, make_entry(rng, 32));
  {
    KillAfterWrites kill(4);
    EXPECT_THROW(jit::save_cache(bigger, file.path),
                 KillAfterWrites::InjectedCrash);
  }
  // The interrupted save went to <path>.tmp and never renamed: the old file
  // is byte-identical and still loads, and the temp was removed.
  EXPECT_EQ(FaultyFile::read_all(file.path), before);
  EXPECT_EQ(std::fopen((file.path + ".tmp").c_str(), "rb"), nullptr);
  jit::BitstreamCache loaded;
  jit::load_cache(loaded, file.path);
  EXPECT_EQ(loaded.entries(), 3u);
}

TEST(Journal, KilledCompactionPreservesJournalAndStaysUsable) {
  TempPath file("/tmp/jitise_compact_crash.jrnl");
  support::Xoshiro256 rng(fault_seed() ^ 0xC0DAu);
  jit::BitstreamCache cache;
  jit::CacheJournal journal(file.path);
  journal.attach(cache);
  for (std::uint64_t s = 1; s <= 4; ++s) cache.insert(s, make_entry(rng, 16));
  journal.sync();
  const auto before = FaultyFile::read_all(file.path);

  {
    KillAfterWrites kill(2);
    EXPECT_THROW(journal.compact(cache), KillAfterWrites::InjectedCrash);
  }
  EXPECT_EQ(FaultyFile::read_all(file.path), before);
  EXPECT_EQ(journal.compactions(), 0u);

  // The journal survived its own failed compaction: appends still work.
  cache.insert(5, make_entry(rng, 16));
  EXPECT_EQ(journal.sync(), 1u);
  jit::BitstreamCache loaded;
  EXPECT_EQ(jit::load_cache(loaded, file.path).entries, 5u);
}

TEST(Journal, KilledAppendKeepsEveryPreviouslyPersistedEntry) {
  TempPath file("/tmp/jitise_append_crash.jrnl");
  support::Xoshiro256 rng(fault_seed() ^ 0xAEEDu);
  std::vector<std::uint64_t> persisted;
  {
    jit::BitstreamCache cache;
    jit::CacheJournal journal(file.path);
    journal.attach(cache);
    for (std::uint64_t s = 1; s <= 3; ++s) {
      cache.insert(s, make_entry(rng, 16));
      persisted.push_back(s);
    }
    journal.sync();

    // The 4th record's append dies after one 32-byte chunk: a torn tail.
    cache.insert(4, make_entry(rng, 16));
    KillAfterWrites kill(1);
    EXPECT_THROW(journal.sync(), KillAfterWrites::InjectedCrash);
    // Journal destructor runs here — its flush puts the torn chunk on disk,
    // exactly what a killed process would leave behind.
  }
  jit::BitstreamCache loaded;
  const auto report = jit::load_cache(loaded, file.path);
  EXPECT_TRUE(report.recovered_truncation);
  EXPECT_EQ(loaded.entries(), persisted.size());
  for (const std::uint64_t s : persisted)
    EXPECT_TRUE(loaded.lookup(s).has_value()) << "signature " << s;
  EXPECT_FALSE(loaded.lookup(4).has_value());

  // Recovery truncates the torn tail on the next attach, and the journal
  // keeps accumulating from the valid prefix.
  {
    jit::BitstreamCache cache;
    jit::CacheJournal journal(file.path);
    const auto replay = journal.attach(cache);
    EXPECT_EQ(replay.entries, persisted.size());
    cache.insert(7, make_entry(rng, 16));
    journal.sync();
  }
  jit::BitstreamCache reloaded;
  const auto second = jit::load_cache(reloaded, file.path);
  EXPECT_FALSE(second.recovered_truncation);
  EXPECT_EQ(reloaded.entries(), persisted.size() + 1);
}

// -- Satellite: randomized round-trip property ------------------------------

TEST(Journal, RandomCachesRoundTripByteIdentically) {
  TempPath first("/tmp/jitise_roundtrip_a.jrnl");
  TempPath second("/tmp/jitise_roundtrip_b.jrnl");
  support::Xoshiro256 rng(fault_seed() * 0x9E3779B97F4A7C15ull + 0xB17Eu);
  // Payload sizes cover the CRC edges: empty (unchecked), shorter than the
  // 4-byte CRC word (empty-message CRC), exactly 4, and longer.
  const std::size_t payloads[] = {0, 1, 2, 3, 4, 5, 8, 31, 64, 200};

  for (int trial = 0; trial < 200; ++trial) {
    jit::BitstreamCache original;
    const std::size_t n = static_cast<std::size_t>(rng.below(13));
    std::vector<std::uint64_t> sigs;
    std::set<std::uint64_t> used;
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t sig = rng();
      while (!used.insert(sig).second) sig = rng();
      sigs.push_back(sig);
      original.insert(
          sig, make_entry(rng, payloads[rng.below(std::size(payloads))]));
    }
    // Shuffle recency so the LRU stamps are not simply insertion order.
    for (std::uint64_t touches = rng.below(8); touches > 0 && n > 0;
         --touches)
      (void)original.lookup(sigs[rng.below(n)]);

    jit::save_cache(original, first.path);
    jit::BitstreamCache loaded;
    jit::load_cache(loaded, first.path);
    ASSERT_EQ(loaded.entries(), original.entries()) << "trial=" << trial;
    jit::save_cache(loaded, second.path);
    // Byte-identical second save: the load preserved entries *and* their
    // LRU order exactly.
    EXPECT_EQ(FaultyFile::read_all(first.path),
              FaultyFile::read_all(second.path))
        << "trial=" << trial;
  }
}

// -- Journal semantics: tombstones, duplicated/reordered tails, compaction --

TEST(Journal, EvictionTombstonesReplay) {
  TempPath file("/tmp/jitise_tombstone.jrnl");
  support::Xoshiro256 rng(fault_seed() ^ 0x70B5u);
  jit::BitstreamCache cache(/*capacity_bytes=*/1000);
  jit::CacheJournal journal(file.path);
  journal.attach(cache);

  cache.insert(1, make_entry(rng, 400));
  cache.insert(2, make_entry(rng, 400));
  (void)cache.lookup(1);                 // LRU order now: 2, 1
  cache.insert(3, make_entry(rng, 400)); // evicts 2, journaling a tombstone
  ASSERT_EQ(cache.entries(), 2u);
  journal.sync();

  jit::BitstreamCache loaded;
  const auto report = jit::load_cache(loaded, file.path);
  EXPECT_EQ(report.tombstones, 1u);
  EXPECT_EQ(loaded.entries(), 2u);
  EXPECT_TRUE(loaded.contains(1));
  EXPECT_FALSE(loaded.contains(2));
  EXPECT_TRUE(loaded.contains(3));
}

TEST(Journal, DuplicatedAndReorderedTailRecordsAreTolerated) {
  TempPath file("/tmp/jitise_tail_games.jrnl");
  const std::uint64_t seed = fault_seed() ^ 0x7A11u;

  auto g = build_golden(file.path, 4, seed);
  FaultyFile::duplicate_tail(file.path, g.boundaries[3]);
  {
    jit::BitstreamCache loaded;
    const auto report = jit::load_cache(loaded, file.path);
    EXPECT_FALSE(report.recovered_truncation);
    EXPECT_EQ(report.records, 5u);  // the duplicate replayed idempotently
    EXPECT_EQ(loaded.entries(), 4u);
    for (const auto& [sig, entry] : g.entries) {
      const auto hit = loaded.lookup(sig);
      ASSERT_TRUE(hit.has_value());
      expect_entry_eq(*hit, entry);
    }
  }

  g = build_golden(file.path, 4, seed);
  FaultyFile::swap_tail(file.path, g.boundaries[2], g.boundaries[3]);
  {
    jit::BitstreamCache loaded;
    const auto report = jit::load_cache(loaded, file.path);
    EXPECT_FALSE(report.recovered_truncation);
    EXPECT_EQ(loaded.entries(), 4u);
    for (const auto& [sig, entry] : g.entries) {
      const auto hit = loaded.lookup(sig);
      ASSERT_TRUE(hit.has_value());
      expect_entry_eq(*hit, entry);
    }
  }
}

TEST(Journal, CompactionTriggersOnGarbageRatioAndShrinksTheFile) {
  TempPath file("/tmp/jitise_compaction.jrnl");
  support::Xoshiro256 rng(fault_seed() ^ 0xC03Bu);
  jit::CompactionPolicy policy;
  policy.min_file_bytes = 64;
  policy.max_garbage_ratio = 0.4;

  jit::BitstreamCache cache;
  jit::CacheJournal journal(file.path, policy);
  journal.attach(cache);
  // Ten re-inserts of one signature: 10 records, 1 live entry — 90% garbage.
  for (int i = 0; i < 10; ++i) cache.insert(42, make_entry(rng, 64));
  cache.insert(7, make_entry(rng, 64));
  journal.sync();
  const std::size_t before = FaultyFile::size(file.path);

  EXPECT_TRUE(journal.maybe_compact(cache));
  EXPECT_EQ(journal.compactions(), 1u);
  EXPECT_EQ(journal.file_records(), 2u);
  EXPECT_LT(FaultyFile::size(file.path), before);
  // No garbage left: the trigger must not fire again.
  EXPECT_FALSE(journal.maybe_compact(cache));

  jit::BitstreamCache loaded;
  const auto report = jit::load_cache(loaded, file.path);
  EXPECT_EQ(report.records, 2u);
  EXPECT_EQ(loaded.entries(), 2u);
  EXPECT_TRUE(loaded.contains(42));
  EXPECT_TRUE(loaded.contains(7));
}

// -- Format versions: only the journal loads ---------------------------------

TEST(Journal, V1FilesAreRefusedAndLeftUntouched) {
  // A header of the retired whole-file format (`JITC` magic, version 1)
  // followed by an entry count and payload bytes. Neither loader may read
  // it, touch the cache, or rewrite the file.
  TempPath file("/tmp/jitise_v1_refused.jrnl");
  const std::uint32_t magic = 0x4A495443;  // "JITC"
  const std::uint32_t version = 1;
  const std::uint64_t count = 1;
  std::vector<std::uint8_t> bytes(sizeof magic + sizeof version + sizeof count);
  std::memcpy(bytes.data(), &magic, sizeof magic);
  std::memcpy(bytes.data() + 4, &version, sizeof version);
  std::memcpy(bytes.data() + 8, &count, sizeof count);
  for (std::uint8_t b = 0; b < 32; ++b) bytes.push_back(b);
  FaultyFile::write_all(file.path, bytes);

  jit::BitstreamCache loaded;
  EXPECT_THROW(jit::load_cache(loaded, file.path), std::runtime_error);
  EXPECT_EQ(loaded.entries(), 0u);
  EXPECT_EQ(FaultyFile::read_all(file.path), bytes);

  jit::BitstreamCache attached;
  {
    jit::CacheJournal journal(file.path);
    EXPECT_THROW(journal.attach(attached), std::runtime_error);
  }
  EXPECT_EQ(attached.entries(), 0u);
  EXPECT_EQ(attached.journal(), nullptr);
  EXPECT_EQ(FaultyFile::read_all(file.path), bytes);
  EXPECT_EQ(std::fopen((file.path + ".tmp").c_str(), "rb"), nullptr);
}

TEST(Journal, WarmStartAccumulatesAcrossAttachCycles) {
  TempPath file("/tmp/jitise_warm.jrnl");
  support::Xoshiro256 rng(fault_seed() ^ 0x3A3Au);
  for (std::uint64_t round = 0; round < 3; ++round) {
    jit::BitstreamCache cache;
    jit::CacheJournal journal(file.path);
    const auto replay = journal.attach(cache);
    EXPECT_EQ(replay.entries, round);  // everything earlier rounds persisted
    cache.insert(100 + round, make_entry(rng, 24));
    journal.sync();
  }
}

// -- Pipeline integration: the persistence tail -----------------------------

ir::Module make_app() {
  ir::Module m;
  m.name = "persist_app";
  ir::FunctionBuilder fb(m, "main", ir::Type::I32, {ir::Type::I32});
  const ir::BlockId hot = fb.new_block("hot");
  const ir::BlockId exit = fb.new_block("exit");
  fb.br(hot);
  fb.set_insert(hot);
  const ir::ValueId i = fb.phi(ir::Type::I32);
  const ir::ValueId acc = fb.phi(ir::Type::I32);
  const ir::ValueId t1 =
      fb.binop(ir::Opcode::Mul, acc, fb.const_int(ir::Type::I32, 31));
  const ir::ValueId t2 =
      fb.binop(ir::Opcode::SDiv, t1, fb.const_int(ir::Type::I32, 7));
  const ir::ValueId t3 = fb.binop(ir::Opcode::Xor, t2, i);
  const ir::ValueId inext =
      fb.binop(ir::Opcode::Add, i, fb.const_int(ir::Type::I32, 1));
  const ir::ValueId cont = fb.icmp(ir::ICmpPred::Slt, inext, fb.param(0));
  fb.condbr(cont, hot, exit);
  fb.phi_incoming(i, fb.const_int(ir::Type::I32, 0), fb.entry());
  fb.phi_incoming(i, inext, hot);
  fb.phi_incoming(acc, fb.const_int(ir::Type::I32, 9), fb.entry());
  fb.phi_incoming(acc, t3, hot);
  fb.set_insert(exit);
  fb.ret(t3);
  fb.finish();
  return m;
}

struct JournalSyncObserver final : jit::PipelineObserver {
  std::size_t events = 0;
  std::size_t flushed = 0;
  bool compacted = false;
  void on_cache_journal_sync(std::size_t flushed_records,
                             bool did_compact) override {
    ++events;
    flushed += flushed_records;
    compacted = compacted || did_compact;
  }
};

TEST(PipelinePersistence, SpecializerSyncsAttachedJournal) {
  TempPath file("/tmp/jitise_pipeline_journal.jrnl");
  const ir::Module m = make_app();
  vm::Machine machine(m);
  const vm::Slot args[] = {vm::Slot::of_int(3000)};
  machine.run("main", args, 1ull << 30);

  jit::BitstreamCache cache;
  jit::CacheJournal journal(file.path);
  journal.attach(cache);

  jit::SpecializerConfig config;
  JournalSyncObserver observer;
  jit::SpecializationPipeline pipeline(config, &cache);
  pipeline.add_observer(&observer);
  const auto result = pipeline.run(m, machine.profile());
  ASSERT_GT(result.implemented.size(), 0u);

  // The persistence tail flushed every insert this run paid for.
  EXPECT_EQ(observer.events, 1u);
  EXPECT_EQ(observer.flushed, cache.entries());
  EXPECT_EQ(journal.file_records(), cache.entries());

  // A fresh process (fresh cache) warm-starts from the journal and the same
  // specialization becomes all cache hits.
  jit::BitstreamCache warm;
  EXPECT_EQ(jit::load_cache(warm, file.path).entries, cache.entries());
  jit::SpecializationPipeline warm_pipeline(config, &warm);
  const auto warm_result = warm_pipeline.run(m, machine.profile());
  EXPECT_GT(warm.hits(), 0u);
  // Failed candidates are never cached, so only a failure-free run pays
  // exactly zero generation time when warm.
  if (result.candidates_failed == 0)
    EXPECT_DOUBLE_EQ(warm_result.sum_total_s, 0.0);
  else
    EXPECT_LT(warm_result.sum_total_s, result.sum_total_s);
  EXPECT_DOUBLE_EQ(warm_result.predicted_speedup, result.predicted_speedup);
}

TEST(PipelinePersistence, SyncCanBeDisabledByConfig) {
  TempPath file("/tmp/jitise_pipeline_nosync.jrnl");
  const ir::Module m = make_app();
  vm::Machine machine(m);
  const vm::Slot args[] = {vm::Slot::of_int(3000)};
  machine.run("main", args, 1ull << 30);

  jit::BitstreamCache cache;
  jit::CacheJournal journal(file.path);
  journal.attach(cache);

  jit::SpecializerConfig config;
  config.sync_cache_journal = false;
  JournalSyncObserver observer;
  jit::SpecializationPipeline pipeline(config, &cache);
  pipeline.add_observer(&observer);
  const auto result = pipeline.run(m, machine.profile());
  ASSERT_GT(result.implemented.size(), 0u);

  EXPECT_EQ(observer.events, 0u);
  EXPECT_EQ(journal.file_records(), 0u);  // still buffered, not durable
  EXPECT_GT(journal.sync(), 0u);          // explicit sync flushes them
  EXPECT_EQ(journal.file_records(), cache.entries());
}

// -- Satellite: opt-in fsync durability mode --------------------------------

TEST(Journal, FsyncModeRoundTripsAndSurvivesCompaction) {
  TempPath file("/tmp/jitise_fsync_mode.jrnl");
  support::Xoshiro256 rng(fault_seed() ^ 0xF5F5u);
  jit::BitstreamCache cache;
  jit::CacheJournal journal(file.path);
  EXPECT_FALSE(journal.fsync_enabled());
  journal.set_fsync(true);
  EXPECT_TRUE(journal.fsync_enabled());
  journal.attach(cache);

  std::map<std::uint64_t, jit::CachedImplementation> entries;
  for (std::uint64_t sig = 1; sig <= 5; ++sig) {
    entries[sig * 31] = make_entry(rng, 200 + static_cast<std::size_t>(sig));
    cache.insert(sig * 31, entries[sig * 31]);
  }
  // fdatasync'd appends produce the same bytes as buffered ones: the mode
  // changes durability, never content.
  EXPECT_EQ(journal.sync(), 5u);
  {
    jit::BitstreamCache loaded;
    const auto report = jit::load_cache(loaded, file.path);
    EXPECT_FALSE(report.recovered_truncation);
    EXPECT_EQ(report.entries, 5u);
    for (const auto& [sig, entry] : entries) {
      const auto hit = loaded.lookup(sig);
      ASSERT_TRUE(hit.has_value());
      expect_entry_eq(*hit, entry);
    }
  }

  // The durable compaction path (fdatasync tmp, rename, fsync directory)
  // rewrites an equivalent journal.
  journal.compact(cache);
  EXPECT_TRUE(journal.fsync_enabled());  // sticky across compaction
  jit::BitstreamCache compacted;
  const auto report = jit::load_cache(compacted, file.path);
  EXPECT_EQ(report.entries, 5u);
  EXPECT_EQ(report.tombstones, 0u);
  for (const auto& [sig, entry] : entries) {
    const auto hit = compacted.lookup(sig);
    ASSERT_TRUE(hit.has_value());
    expect_entry_eq(*hit, entry);
  }
}

TEST(PipelinePersistence, JournalFsyncConfigSwitchesSinkMode) {
  TempPath file("/tmp/jitise_fsync_config.jrnl");
  const ir::Module m = make_app();
  vm::Machine machine(m);
  const vm::Slot args[] = {vm::Slot::of_int(3000)};
  machine.run("main", args, 1ull << 30);

  jit::BitstreamCache cache;
  jit::CacheJournal journal(file.path);
  journal.attach(cache);

  // Default config leaves the sink in buffered (process-death) mode.
  jit::SpecializerConfig config;
  jit::SpecializationPipeline pipeline(config, &cache);
  (void)pipeline.run(m, machine.profile());
  EXPECT_FALSE(journal.fsync_enabled());

  // journal_fsync flips the attached sink before the persistence tail syncs.
  config.journal_fsync = true;
  jit::SpecializationPipeline durable(config, &cache);
  (void)durable.run(m, machine.profile());
  EXPECT_TRUE(journal.fsync_enabled());
  EXPECT_EQ(journal.file_records(), cache.entries());
}

}  // namespace
