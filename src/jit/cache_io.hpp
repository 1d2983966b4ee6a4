// Crash-safe persistence of the bitstream cache — the paper's §VI-A on-disk
// database. The cache is what collapses the ~50 min CAD overhead on warm
// runs (Table IV), so it is the one artifact that must survive process
// restarts intact.
//
// The one on-disk format is an **append-only journal**: an 8-byte header
// (`JITC` magic, version 2) followed by CRC-framed records. Each record
// frames a body (`JRNL` record magic, body length, CRC-32 over the body)
// holding a monotonically stamped insert (signature + full entry) or evict
// tombstone.
// Recovery is prefix-preserving: `load_cache` replays records in file order
// and, on the first torn or corrupt record, stops and keeps every wholly
// intact record before it — a crash mid-append loses at most the record
// being written, never the accumulated cache. Compaction and full saves go
// through `<path>.tmp` + `std::rename`, so a crash at any instant leaves
// either the old file or the new one, never a hybrid. Any other header
// version (including the retired whole-file version 1) is refused.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "jit/cache.hpp"

namespace jitise::jit {

/// What a `load_cache` (or `CacheJournal::attach`) replay found.
struct CacheLoadReport {
  std::size_t entries = 0;     // cache entry count after the load committed
  std::size_t records = 0;     // journal records replayed (incl. evicts)
  std::size_t tombstones = 0;  // evict records among `records`
  /// A torn/corrupt tail was dropped; everything before it was kept.
  bool recovered_truncation = false;
  /// Byte length of the valid journal prefix (== file size when clean).
  std::uint64_t valid_bytes = 0;
};

/// Writes all cache entries to `path` as a journal (one insert record per
/// entry, oldest first, stamps 1..N so a reload reproduces the LRU order
/// exactly). Atomic: the bytes go to `<path>.tmp` and are `std::rename`d
/// over `path` only once complete. Throws std::runtime_error on I/O
/// failure — with the previous file untouched.
void save_cache(const BitstreamCache& cache, const std::string& path);

/// Replays a journal file; entries merge into `cache` (existing signatures
/// are overwritten; evict tombstones erase). Prefix-preserving: replay stops
/// at the first torn or corrupt record (frame damage or CRC mismatch) and
/// every wholly intact record before it stays committed;
/// `recovered_truncation`/`valid_bytes` report what was dropped. Never
/// throws for tail damage. A file that cannot be opened, or whose 8-byte
/// header is damaged or carries another version, throws without touching
/// the cache.
CacheLoadReport load_cache(BitstreamCache& cache, const std::string& path);

/// When to rewrite the journal from live state (dropping superseded and
/// tombstoned records).
struct CompactionPolicy {
  /// Never compact a journal smaller than this (rewrite churn guard).
  std::uint64_t min_file_bytes = 64 * 1024;
  /// Compact once (records - live entries) / records exceeds this.
  double max_garbage_ratio = 0.5;
};

/// The live persistence sink: attach one to a `BitstreamCache` and every
/// insert/evict is buffered (sharded by signature, same stripe mapping as
/// the cache, so the under-lock record hooks stay stripe-local) and appended
/// to the journal file on `sync()`. `maybe_compact` rewrites the file from a
/// cache snapshot via tmp + rename when the CompactionPolicy triggers.
///
/// Threading: `record_insert`/`record_evict` are called by the cache under
/// its own locks and only touch shard buffers. `sync`, `compact` and
/// `maybe_compact` may be called from any thread not holding cache locks
/// (they serialize on an internal file mutex and may take cache locks via
/// `snapshot()`).
class CacheJournal final : public CacheJournalSink {
 public:
  explicit CacheJournal(std::string path, CompactionPolicy policy = {});
  /// Best-effort final sync (errors swallowed), then closes the file.
  ~CacheJournal() override;

  CacheJournal(const CacheJournal&) = delete;
  CacheJournal& operator=(const CacheJournal&) = delete;

  /// Warm-start entry point: replays an existing journal into `cache`
  /// (truncating a torn tail in place so appends land after the valid
  /// prefix), or creates a fresh journal when `path` does not exist — then
  /// opens the append handle and installs itself as the cache's sink.
  /// Throws, leaving the file untouched and the sink uninstalled, on an
  /// unopenable directory or a bad header (tail damage never throws).
  CacheLoadReport attach(BitstreamCache& cache);

  void record_insert(std::uint64_t signature,
                     const CachedImplementation& entry) override;
  void record_evict(std::uint64_t signature) override;
  /// Appends all buffered records to the journal and flushes; returns how
  /// many records were written. In fsync mode the append is also
  /// `fdatasync`ed, extending the crash model from process death to power
  /// loss.
  std::size_t sync() override;
  /// Durability mode (see CacheJournalSink::set_fsync): when enabled,
  /// `sync()` fdatasyncs the journal fd and `compact()` fsyncs the rewritten
  /// file and its directory around the rename. Plumbed from
  /// `SpecializerConfig::journal_fsync` by the pipeline's persistence tail
  /// and from `--suite-cache-fsync` by the bench drivers.
  void set_fsync(bool enabled) override {
    fsync_.store(enabled, std::memory_order_relaxed);
  }
  [[nodiscard]] bool fsync_enabled() const noexcept {
    return fsync_.load(std::memory_order_relaxed);
  }
  /// `sync()` + compaction when `policy` triggers against `cache`'s live
  /// entry count; returns true when the file was rewritten.
  bool maybe_compact(const BitstreamCache& cache) override;
  /// Unconditional rewrite from `cache`'s live state (tmp + rename;
  /// exception-safe: on failure the old journal and append handle survive).
  void compact(const BitstreamCache& cache);

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  /// Records currently in the on-disk file (replayed + flushed).
  [[nodiscard]] std::uint64_t file_records() const noexcept {
    return file_records_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t compactions() const noexcept {
    return compactions_.load(std::memory_order_relaxed);
  }

 private:
  struct Shard {
    std::mutex mu;
    std::vector<std::uint8_t> pending;  // framed records, ready to append
    std::size_t records = 0;
  };

  Shard& shard_of(std::uint64_t signature) {
    return shards_[(signature ^ (signature >> 32)) % shards_.size()];
  }
  void buffer_record(std::uint64_t signature,
                     const std::vector<std::uint8_t>& frame);
  /// Drains every shard (in index order) into one byte run; returns the
  /// record count drained.
  std::size_t drain_pending(std::vector<std::uint8_t>& out);

  const std::string path_;
  const CompactionPolicy policy_;
  std::vector<Shard> shards_;
  std::atomic<bool> fsync_{false};
  std::atomic<std::uint64_t> stamp_{0};
  std::atomic<std::uint64_t> file_records_{0};
  std::atomic<std::uint64_t> compactions_{0};
  std::mutex file_mu_;        // guards file_ and the append/compact sequence
  std::FILE* file_ = nullptr; // append handle; null until attach()
};

namespace testing_hooks {

/// Fault injection for the persistence tests: when set, the hook runs before
/// every physical cache-file write with the byte offset about to be written
/// and the write size. A hook that throws models a process killed mid-save —
/// the write (and everything after it) never happens. Pass nullptr to
/// restore normal writes. Not thread-safe; tests install it around
/// single-threaded save/sync calls.
using CacheIoWriteHook = std::function<void(std::uint64_t offset,
                                            std::size_t n)>;
void set_cache_io_write_hook(CacheIoWriteHook hook);

}  // namespace testing_hooks

}  // namespace jitise::jit
