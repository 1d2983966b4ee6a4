// Partial-reconfiguration bitstream cache (paper §VI-A).
//
// "Much like virtual machines cache the binary code that was generated
// on-the-fly, we can cache the generated partial bitstreams for each custom
// instruction. Each candidate needs a unique identifier used as a key."
// The key is the candidate's structural signature (ise::candidate_signature),
// so identical datapaths hit across applications and runs. A size-bounded
// LRU policy models the on-disk database.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "fpga/bitgen.hpp"

namespace jitise::jit {

struct CachedImplementation {
  fpga::Bitstream bitstream;
  std::uint32_t hw_cycles = 1;
  double critical_path_ns = 0.0;
  double area_slices = 0.0;
  std::size_t cells = 0;
  /// What generating this bitstream cost (modeled seconds) — the amount a
  /// cache hit saves.
  double generation_seconds = 0.0;
};

class BitstreamCache;

/// Persistence hook: mirrors every cache mutation into a durable store (the
/// append-only journal in jit/cache_io.*). The cache invokes the sink while
/// holding at least the mutated stripe's lock — `record_insert` holds that
/// stripe's lock, capacity eviction holds all stripe locks — so
/// per-signature journal order always matches cache order; implementations
/// must therefore only buffer (never call back into the cache) from the
/// record hooks. `sync()`/`maybe_compact()` are called with no cache locks
/// held.
class CacheJournalSink {
 public:
  virtual ~CacheJournalSink() = default;

  /// An entry was inserted or replaced (stripe lock of `signature` held).
  virtual void record_insert(std::uint64_t signature,
                             const CachedImplementation& entry) = 0;
  /// An entry was evicted to capacity (all stripe locks held).
  virtual void record_evict(std::uint64_t signature) = 0;
  /// Flushes buffered records to durable storage; returns how many records
  /// were flushed. Never called under cache locks.
  virtual std::size_t sync() = 0;
  /// Opts the sink into power-loss durability: subsequent `sync()`s must
  /// reach stable storage (fdatasync), and compactions must fsync the
  /// renamed file and its directory. Default ignores the request (a sink
  /// whose crash model is process death only). Sticky once enabled.
  virtual void set_fsync(bool /*enabled*/) {}
  /// Optionally rewrites the backing store from `cache`'s live state when a
  /// size/garbage trigger fires; returns true when a compaction ran. Never
  /// called under cache locks.
  virtual bool maybe_compact(const BitstreamCache& /*cache*/) { return false; }
};

/// Thread-safe and lock-striped: signatures hash onto independent stripes,
/// each with its own mutex, so concurrent specializer tasks (app-parallel
/// bench drivers times per-candidate CAD workers) rarely contend on the hot
/// lookup/insert path. Recency is tracked by a global atomic stamp clock, so
/// eviction order and `snapshot()` order remain *global* LRU — identical to
/// the former single-mutex implementation for any serial history. Eviction
/// and `snapshot()` take all stripe locks (in index order) for a consistent
/// view.
class BitstreamCache {
 public:
  /// `capacity_bytes` bounds the sum of cached bitstream sizes (LRU
  /// eviction); 0 means unbounded. `stripes` is the lock-shard count; 1
  /// degenerates to the classic single-mutex cache.
  explicit BitstreamCache(std::size_t capacity_bytes = 0,
                          std::size_t stripes = 16)
      : capacity_(capacity_bytes), stripes_(stripes == 0 ? 1 : stripes) {}

  /// Returns the entry and refreshes its (global) LRU position.
  std::optional<CachedImplementation> lookup(std::uint64_t signature);

  void insert(std::uint64_t signature, CachedImplementation entry);

  [[nodiscard]] std::size_t entries() const {
    return entries_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t bytes() const {
    return bytes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t hits() const {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  /// Pure membership probe: touches neither the hit/miss counters nor the
  /// LRU order (the pipeline uses it to skip dispatching cached work).
  [[nodiscard]] bool contains(std::uint64_t signature) const;

  /// Removes one entry (journal-replay helper for evict tombstones). Unlike
  /// capacity eviction this is *not* forwarded to the journal sink — replay
  /// must not re-journal the records it is applying. Returns whether the
  /// signature was present.
  bool erase(std::uint64_t signature);

  /// Attaches (or detaches, with nullptr) the persistence sink. Not owned;
  /// must outlive the cache or be detached first. Attach before the cache is
  /// shared across threads — the pointer itself is unsynchronized. `clear()`
  /// and `erase()` are never journaled; a sink is expected to be attached to
  /// a cache whose journal it has itself just replayed (CacheJournal::attach).
  void set_journal(CacheJournalSink* sink) noexcept { journal_ = sink; }
  [[nodiscard]] CacheJournalSink* journal() const noexcept { return journal_; }

  void clear();

  /// Consistent snapshot of all entries (most recently used first,
  /// globally) for serialization and inspection.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, CachedImplementation>>
  snapshot() const;

 private:
  struct Node {
    std::uint64_t signature;
    CachedImplementation entry;
    std::uint64_t stamp;  // global recency; larger = more recent
  };
  /// One lock shard. Within a stripe the list is ordered by stamp
  /// descending (front = stripe's most recent), so `lru.back()` is the
  /// stripe's global-LRU representative.
  struct Stripe {
    mutable std::mutex mu;
    std::list<Node> lru;
    std::unordered_map<std::uint64_t, std::list<Node>::iterator> map;
    std::size_t bytes = 0;
  };

  [[nodiscard]] Stripe& stripe_of(std::uint64_t signature) {
    return stripes_[(signature ^ (signature >> 32)) % stripes_.size()];
  }
  [[nodiscard]] const Stripe& stripe_of(std::uint64_t signature) const {
    return stripes_[(signature ^ (signature >> 32)) % stripes_.size()];
  }

  /// Evicts globally-least-recent entries until within capacity. Takes all
  /// stripe locks (index order); callers must hold none of them.
  void evict_to_capacity();

  std::size_t capacity_;
  CacheJournalSink* journal_ = nullptr;
  std::vector<Stripe> stripes_;  // sized at construction, never reallocated
  std::atomic<std::uint64_t> clock_{0};
  std::atomic<std::size_t> bytes_{0};
  std::atomic<std::size_t> entries_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace jitise::jit
