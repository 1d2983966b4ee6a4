#include "jit/cache_io.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <utility>

#include "fpga/bitgen.hpp"

namespace jitise::jit {

namespace {

constexpr std::uint32_t kMagic = 0x4A495443;        // "JITC" (file header)
constexpr std::uint32_t kRecordMagic = 0x4A524E4C;  // "JRNL" (record frame)
constexpr std::uint32_t kVersion = 2;  // the journal (version 1 is refused)
constexpr std::uint32_t kKindInsert = 1;
constexpr std::uint32_t kKindEvict = 2;
// A record body is a fixed preamble plus one entry (bitstream bounded at
// 1 GiB, part string at 1 MiB) — anything larger is frame damage.
constexpr std::uint64_t kMaxRecordBytes = (1ull << 30) + (1ull << 21);
constexpr std::size_t kAppendChunk = 32;  // journal append granularity

testing_hooks::CacheIoWriteHook g_write_hook;

struct FileCloser {
  void operator()(std::FILE* f) const noexcept {
    if (f) std::fclose(f);
  }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

/// All physical cache-file writes funnel through here so the fault-injection
/// hook can model a process killed after M writes: the hook throws *before*
/// the write happens, leaving a prefix of the intended bytes on disk.
void checked_write(std::FILE* f, std::uint64_t& offset, const void* data,
                   std::size_t n) {
  if (g_write_hook) g_write_hook(offset, n);
  if (std::fwrite(data, 1, n, f) != n)
    throw std::runtime_error("cache file: write failed");
  offset += n;
}

/// FILE-backed field writer (tracks the offset for the fault hook).
struct Writer {
  std::FILE* f;
  std::uint64_t offset = 0;
  void bytes(const void* data, std::size_t n) {
    checked_write(f, offset, data, n);
  }
  template <typename T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes(&v, sizeof(v));
  }
};

// -- In-memory encoding (journal record bodies).

void append_bytes(std::vector<std::uint8_t>& out, const void* data,
                  std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  out.insert(out.end(), p, p + n);
}
template <typename T>
void append_pod(std::vector<std::uint8_t>& out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  append_bytes(out, &v, sizeof(v));
}
void append_string(std::vector<std::uint8_t>& out, const std::string& s) {
  append_pod<std::uint32_t>(out, static_cast<std::uint32_t>(s.size()));
  append_bytes(out, s.data(), s.size());
}

/// Entry serialization inside a journal record body.
void encode_entry(std::vector<std::uint8_t>& out,
                  const CachedImplementation& entry) {
  append_pod(out, entry.hw_cycles);
  append_pod(out, entry.critical_path_ns);
  append_pod(out, entry.area_slices);
  append_pod<std::uint64_t>(out, entry.cells);
  append_pod(out, entry.generation_seconds);
  const fpga::Bitstream& bs = entry.bitstream;
  append_string(out, bs.part);
  append_pod(out, bs.region_width);
  append_pod(out, bs.region_height);
  append_pod(out, bs.frame_count);
  append_pod(out, bs.crc32);
  append_pod<std::uint64_t>(out, bs.bytes.size());
  append_bytes(out, bs.bytes.data(), bs.bytes.size());
}

/// One framed journal record: JRNL magic, body length, CRC-32 over the
/// body, body = (kind, stamp, signature[, entry]).
std::vector<std::uint8_t> make_record(std::uint32_t kind, std::uint64_t stamp,
                                      std::uint64_t signature,
                                      const CachedImplementation* entry) {
  std::vector<std::uint8_t> body;
  append_pod(body, kind);
  append_pod(body, stamp);
  append_pod(body, signature);
  if (entry != nullptr) encode_entry(body, *entry);

  std::vector<std::uint8_t> frame;
  frame.reserve(body.size() + 12);
  append_pod(frame, kRecordMagic);
  append_pod<std::uint32_t>(frame, static_cast<std::uint32_t>(body.size()));
  append_pod(frame, fpga::crc32(body.data(), body.size()));
  append_bytes(frame, body.data(), body.size());
  return frame;
}

// -- Decoding.

struct Cursor {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t at = 0;

  [[nodiscard]] std::size_t remaining() const noexcept { return size - at; }
  bool read(void* out, std::size_t n) {
    if (remaining() < n) return false;
    if (n != 0) std::memcpy(out, data + at, n);  // `out` may be null at n = 0
    at += n;
    return true;
  }
  template <typename T>
  bool pod(T& out) {
    return read(&out, sizeof(out));
  }
};

/// Decodes one entry; false on any structural damage. Also verifies the
/// bitstream's own CRC word (defense in depth under the record CRC).
bool decode_entry(Cursor& c, CachedImplementation& entry) {
  std::uint64_t cells = 0, nbytes = 0;
  std::uint32_t part_len = 0;
  if (!c.pod(entry.hw_cycles) || !c.pod(entry.critical_path_ns) ||
      !c.pod(entry.area_slices) || !c.pod(cells) ||
      !c.pod(entry.generation_seconds) || !c.pod(part_len))
    return false;
  entry.cells = static_cast<std::size_t>(cells);
  if (part_len > (1u << 20) || c.remaining() < part_len) return false;
  entry.bitstream.part.assign(
      reinterpret_cast<const char*>(c.data + c.at), part_len);
  c.at += part_len;
  if (!c.pod(entry.bitstream.region_width) ||
      !c.pod(entry.bitstream.region_height) ||
      !c.pod(entry.bitstream.frame_count) || !c.pod(entry.bitstream.crc32) ||
      !c.pod(nbytes))
    return false;
  if (nbytes > (1ull << 30) || c.remaining() < nbytes) return false;
  entry.bitstream.bytes.resize(static_cast<std::size_t>(nbytes));
  c.read(entry.bitstream.bytes.data(), entry.bitstream.bytes.size());
  if (!entry.bitstream.bytes.empty()) {
    const std::size_t body = entry.bitstream.bytes.size() >= 4
                                 ? entry.bitstream.bytes.size() - 4
                                 : 0;
    if (fpga::crc32(entry.bitstream.bytes.data(), body) !=
        entry.bitstream.crc32)
      return false;
  }
  return true;
}

/// Pushes stdio-flushed bytes of `f` down to stable storage.
void fdatasync_file(std::FILE* f, const std::string& what) {
  if (::fdatasync(::fileno(f)) != 0)
    throw std::runtime_error(what + ": fdatasync failed");
}

/// Fsyncs the directory containing `path`, making a just-renamed entry
/// durable (a rename is only on stable storage once its directory is).
void fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0)
    throw std::runtime_error("cannot open directory for fsync: " + dir);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) throw std::runtime_error("directory fsync failed: " + dir);
}

/// Opens `<path>.tmp`, lets `fill` write into it, and renames over `path` —
/// so an interrupted save (exception, injected crash) can never destroy the
/// previous good file. On failure the temp file is removed. With `durable`,
/// the temp file is fdatasynced before the rename and the directory is
/// fsynced after it, so the replacement survives power loss, not just
/// process death.
template <typename Fill>
void atomic_rewrite(const std::string& path, const Fill& fill,
                    bool durable = false) {
  const std::string tmp = path + ".tmp";
  {
    File f(std::fopen(tmp.c_str(), "wb"));
    if (!f)
      throw std::runtime_error("cannot open cache file for writing: " + tmp);
    try {
      Writer w{f.get()};
      fill(w);
      if (std::fflush(f.get()) != 0)
        throw std::runtime_error("cache file: flush failed");
      if (durable) fdatasync_file(f.get(), "cache file '" + tmp + "'");
    } catch (...) {
      f.reset();
      std::remove(tmp.c_str());
      throw;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("cannot rename " + tmp + " over " + path);
  }
  if (durable) fsync_parent_dir(path);
}

/// Writes a complete journal for `entries` (most-recent-first, as
/// `snapshot()` returns them): records go oldest first with stamps 1..N, so
/// a replay reproduces the LRU order — and a save→load→save round trip is
/// byte-identical.
void write_journal_file(
    const std::string& path,
    const std::vector<std::pair<std::uint64_t, CachedImplementation>>&
        entries,
    bool durable = false) {
  atomic_rewrite(
      path,
      [&](Writer& w) {
        w.pod(kMagic);
        w.pod(kVersion);
        std::uint64_t stamp = 0;
        for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
          const auto frame = make_record(kKindInsert, ++stamp, it->first,
                                         &it->second);
          w.bytes(frame.data(), frame.size());
        }
      },
      durable);
}

/// Journal replay: applies wholly intact records in file order; stops at the
/// first torn or corrupt one, keeping everything before it.
CacheLoadReport replay_journal(BitstreamCache& cache, std::FILE* f) {
  CacheLoadReport report;
  report.valid_bytes = 8;  // header
  for (;;) {
    std::uint32_t magic = 0, len = 0, crc = 0;
    const std::size_t got = std::fread(&magic, 1, sizeof(magic), f);
    if (got == 0) break;  // clean EOF on a record boundary
    bool intact = got == sizeof(magic) && magic == kRecordMagic &&
                  std::fread(&len, 1, sizeof(len), f) == sizeof(len) &&
                  std::fread(&crc, 1, sizeof(crc), f) == sizeof(crc) &&
                  len <= kMaxRecordBytes;
    std::vector<std::uint8_t> body;
    if (intact) {
      body.resize(len);
      intact = std::fread(body.data(), 1, len, f) == len &&
               fpga::crc32(body.data(), body.size()) == crc;
    }
    std::uint32_t kind = 0;
    std::uint64_t stamp = 0, signature = 0;
    CachedImplementation entry;
    if (intact) {
      Cursor c{body.data(), body.size()};
      intact = c.pod(kind) && c.pod(stamp) && c.pod(signature) &&
               (kind == kKindInsert ? decode_entry(c, entry)
                                    : kind == kKindEvict) &&
               c.remaining() == 0;
    }
    if (!intact) {
      report.recovered_truncation = true;
      break;
    }
    if (kind == kKindInsert) {
      cache.insert(signature, std::move(entry));
    } else {
      cache.erase(signature);
      ++report.tombstones;
    }
    ++report.records;
    report.valid_bytes += 12 + static_cast<std::uint64_t>(len);
  }
  report.entries = cache.entries();
  return report;
}

}  // namespace

namespace testing_hooks {
void set_cache_io_write_hook(CacheIoWriteHook hook) {
  g_write_hook = std::move(hook);
}
}  // namespace testing_hooks

void save_cache(const BitstreamCache& cache, const std::string& path) {
  write_journal_file(path, cache.snapshot());
}

CacheLoadReport load_cache(BitstreamCache& cache, const std::string& path) {
  File f(std::fopen(path.c_str(), "rb"));
  if (!f) throw std::runtime_error("cannot open cache file: " + path);

  // Header damage throws without touching the cache: there is no entry data
  // to salvage before it, and clearing would punish an unrelated mixup
  // (pointing the loader at a non-cache file).
  std::uint32_t magic = 0, version = 0;
  if (std::fread(&magic, 1, sizeof(magic), f.get()) != sizeof(magic) ||
      magic != kMagic)
    throw std::runtime_error("cache file '" + path + "': bad magic");
  if (std::fread(&version, 1, sizeof(version), f.get()) != sizeof(version))
    throw std::runtime_error("cache file '" + path + "': truncated header");
  if (version == kVersion) return replay_journal(cache, f.get());
  throw std::runtime_error("cache file '" + path + "': unsupported version");
}

// -- CacheJournal ----------------------------------------------------------

CacheJournal::CacheJournal(std::string path, CompactionPolicy policy)
    : path_(std::move(path)), policy_(policy), shards_(16) {}

CacheJournal::~CacheJournal() {
  try {
    sync();
  } catch (...) {
    // Destructor durability is best-effort; the journal recovers a torn
    // tail on the next load anyway.
  }
  std::lock_guard<std::mutex> lock(file_mu_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

CacheLoadReport CacheJournal::attach(BitstreamCache& cache) {
  {
    std::lock_guard<std::mutex> lock(file_mu_);
    if (file_ != nullptr)
      throw std::runtime_error("cache journal '" + path_ +
                               "': already attached");
  }

  CacheLoadReport report;
  bool fresh = true;
  if (File probe{std::fopen(path_.c_str(), "rb")}) {
    // An empty file (e.g. external truncation to zero) counts as fresh.
    std::fseek(probe.get(), 0, SEEK_END);
    fresh = std::ftell(probe.get()) == 0;
  }
  if (!fresh) {
    report = load_cache(cache, path_);
    if (report.recovered_truncation) {
      // Drop the torn tail in place so appends land after the valid prefix
      // instead of extending garbage.
      if (::truncate(path_.c_str(),
                     static_cast<off_t>(report.valid_bytes)) != 0)
        throw std::runtime_error("cache journal '" + path_ +
                                 "': cannot truncate torn tail");
    }
  } else {
    write_journal_file(path_, {});  // header-only journal, atomically
  }

  std::lock_guard<std::mutex> lock(file_mu_);
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr)
    throw std::runtime_error("cannot open cache journal for append: " +
                             path_);
  file_records_.store(report.records, std::memory_order_relaxed);
  stamp_.store(report.records, std::memory_order_relaxed);
  cache.set_journal(this);
  return report;
}

void CacheJournal::buffer_record(std::uint64_t signature,
                                 const std::vector<std::uint8_t>& frame) {
  Shard& shard = shard_of(signature);
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.pending.insert(shard.pending.end(), frame.begin(), frame.end());
  ++shard.records;
}

void CacheJournal::record_insert(std::uint64_t signature,
                                 const CachedImplementation& entry) {
  const std::uint64_t stamp =
      stamp_.fetch_add(1, std::memory_order_relaxed) + 1;
  buffer_record(signature, make_record(kKindInsert, stamp, signature, &entry));
}

void CacheJournal::record_evict(std::uint64_t signature) {
  const std::uint64_t stamp =
      stamp_.fetch_add(1, std::memory_order_relaxed) + 1;
  buffer_record(signature,
                make_record(kKindEvict, stamp, signature, nullptr));
}

std::size_t CacheJournal::drain_pending(std::vector<std::uint8_t>& out) {
  std::size_t records = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    out.insert(out.end(), shard.pending.begin(), shard.pending.end());
    records += shard.records;
    shard.pending.clear();
    shard.records = 0;
  }
  return records;
}

std::size_t CacheJournal::sync() {
  std::vector<std::uint8_t> bytes;
  const std::size_t records = drain_pending(bytes);
  if (records == 0) return 0;

  std::lock_guard<std::mutex> lock(file_mu_);
  if (file_ == nullptr)
    throw std::runtime_error("cache journal '" + path_ + "': not attached");
  std::fseek(file_, 0, SEEK_END);
  std::uint64_t offset = static_cast<std::uint64_t>(std::ftell(file_));
  // Chunked so an injected crash (or a real short write) tears mid-record;
  // replay recovery keeps everything before the torn record.
  for (std::size_t at = 0; at < bytes.size(); at += kAppendChunk)
    checked_write(file_, offset, bytes.data() + at,
                  std::min(kAppendChunk, bytes.size() - at));
  if (std::fflush(file_) != 0)
    throw std::runtime_error("cache journal '" + path_ + "': flush failed");
  if (fsync_.load(std::memory_order_relaxed))
    fdatasync_file(file_, "cache journal '" + path_ + "'");
  file_records_.fetch_add(records, std::memory_order_relaxed);
  return records;
}

void CacheJournal::compact(const BitstreamCache& cache) {
  // Buffered records were recorded under the cache's stripe locks *after*
  // the state change, so the snapshot below supersedes them: discard. (A
  // record buffered between the drain and the snapshot duplicates snapshot
  // state; replay is idempotent, so a later append of it is harmless.)
  {
    std::vector<std::uint8_t> discard;
    drain_pending(discard);
  }
  const auto entries = cache.snapshot();

  std::lock_guard<std::mutex> lock(file_mu_);
  // Write the replacement fully before touching the live file: if this
  // throws (I/O failure or injected crash), the old journal and the open
  // append handle both survive. In fsync mode the rewrite is durable end to
  // end: the tmp file is fdatasynced before the rename, the directory
  // fsynced after it.
  write_journal_file(path_, entries, fsync_.load(std::memory_order_relaxed));
  // write_journal_file's rename already atomically replaced the path; the old
  // handle now points at the unlinked inode — reopen on the new file.
  if (file_ != nullptr) std::fclose(file_);
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr)
    throw std::runtime_error("cannot reopen cache journal: " + path_);
  file_records_.store(entries.size(), std::memory_order_relaxed);
  stamp_.store(entries.size(), std::memory_order_relaxed);
  compactions_.fetch_add(1, std::memory_order_relaxed);
}

bool CacheJournal::maybe_compact(const BitstreamCache& cache) {
  sync();
  const std::uint64_t records =
      file_records_.load(std::memory_order_relaxed);
  if (records == 0) return false;

  std::uint64_t file_bytes = 0;
  {
    std::lock_guard<std::mutex> lock(file_mu_);
    if (file_ == nullptr) return false;
    std::fseek(file_, 0, SEEK_END);
    file_bytes = static_cast<std::uint64_t>(std::ftell(file_));
  }
  if (file_bytes < policy_.min_file_bytes) return false;
  const std::uint64_t live = cache.entries();
  const std::uint64_t garbage = records > live ? records - live : 0;
  if (static_cast<double>(garbage) <=
      policy_.max_garbage_ratio * static_cast<double>(records))
    return false;
  compact(cache);
  return true;
}

}  // namespace jitise::jit
