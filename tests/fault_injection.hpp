// FaultyFile — byte-level fault injection for the cache-persistence tests.
//
// Two fault families:
//  - Post-hoc file mutations (truncate at byte N, flip bit K, duplicate or
//    reorder tail records): model what a crashed or misbehaving storage
//    layer leaves on disk. Record-granular mutations take explicit byte
//    offsets — the tests learn them by syncing one record at a time and
//    reading the file size, so this header needs no knowledge of the
//    journal framing.
//  - KillAfterWrites: installs the cache_io write hook so a save/append
//    dies after M physical writes, modeling a process killed mid-save (the
//    write that trips the budget, and everything after it, never happens).
#pragma once

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "jit/cache_io.hpp"

namespace jitise::testing {

class FaultyFile {
 public:
  [[nodiscard]] static std::vector<std::uint8_t> read_all(
      const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) throw std::runtime_error("FaultyFile: cannot open " + path);
    std::fseek(f, 0, SEEK_END);
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(std::ftell(f)));
    std::fseek(f, 0, SEEK_SET);
    if (std::fread(bytes.data(), 1, bytes.size(), f) != bytes.size()) {
      std::fclose(f);
      throw std::runtime_error("FaultyFile: short read on " + path);
    }
    std::fclose(f);
    return bytes;
  }

  static void write_all(const std::string& path,
                        const std::vector<std::uint8_t>& bytes) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) throw std::runtime_error("FaultyFile: cannot open " + path);
    // An empty vector's data() may be null, which fwrite must not receive.
    if (!bytes.empty() &&
        std::fwrite(bytes.data(), 1, bytes.size(), f) != bytes.size()) {
      std::fclose(f);
      throw std::runtime_error("FaultyFile: short write on " + path);
    }
    std::fclose(f);
  }

  [[nodiscard]] static std::size_t size(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) throw std::runtime_error("FaultyFile: cannot open " + path);
    std::fseek(f, 0, SEEK_END);
    const auto n = static_cast<std::size_t>(std::ftell(f));
    std::fclose(f);
    return n;
  }

  /// Chops the file to exactly `n` bytes (a torn tail).
  static void truncate_at(const std::string& path, std::size_t n) {
    if (::truncate(path.c_str(), static_cast<off_t>(n)) != 0)
      throw std::runtime_error("FaultyFile: truncate failed on " + path);
  }

  /// Flips bit `bit` (0..7) of byte `index`.
  static void flip_bit(const std::string& path, std::size_t index,
                       unsigned bit) {
    auto bytes = read_all(path);
    if (index >= bytes.size())
      throw std::runtime_error("FaultyFile: flip offset out of range");
    bytes[index] ^= static_cast<std::uint8_t>(1u << (bit & 7u));
    write_all(path, bytes);
  }

  /// Appends a second copy of the tail `[tail_start, size)` — a duplicated
  /// journal record (e.g. a retried append that landed twice).
  static void duplicate_tail(const std::string& path, std::size_t tail_start) {
    auto bytes = read_all(path);
    if (tail_start > bytes.size())
      throw std::runtime_error("FaultyFile: tail offset out of range");
    bytes.insert(bytes.end(), bytes.begin() + static_cast<std::ptrdiff_t>(
                                                  tail_start),
                 bytes.end());
    write_all(path, bytes);
  }

  /// Swaps the two adjacent byte ranges [a, b) and [b, size) — the last two
  /// journal records written out of order.
  static void swap_tail(const std::string& path, std::size_t a,
                        std::size_t b) {
    auto bytes = read_all(path);
    if (!(a < b && b <= bytes.size()))
      throw std::runtime_error("FaultyFile: bad tail ranges");
    std::vector<std::uint8_t> reordered(bytes.begin(),
                                        bytes.begin() + static_cast<std::ptrdiff_t>(a));
    reordered.insert(reordered.end(),
                     bytes.begin() + static_cast<std::ptrdiff_t>(b),
                     bytes.end());
    reordered.insert(reordered.end(),
                     bytes.begin() + static_cast<std::ptrdiff_t>(a),
                     bytes.begin() + static_cast<std::ptrdiff_t>(b));
    write_all(path, reordered);
  }
};

/// RAII write-budget fault: the save/append that exhausts `allowed` writes
/// throws `InjectedCrash` from inside cache_io, before the offending write
/// reaches the file. Uninstalls the hook on destruction.
class KillAfterWrites {
 public:
  struct InjectedCrash : std::runtime_error {
    InjectedCrash() : std::runtime_error("injected crash: write budget spent") {}
  };

  explicit KillAfterWrites(std::size_t allowed) {
    jit::testing_hooks::set_cache_io_write_hook(
        [this, allowed](std::uint64_t /*offset*/, std::size_t /*n*/) {
          if (writes_seen_++ >= allowed) throw InjectedCrash{};
        });
  }
  ~KillAfterWrites() { jit::testing_hooks::set_cache_io_write_hook(nullptr); }

  KillAfterWrites(const KillAfterWrites&) = delete;
  KillAfterWrites& operator=(const KillAfterWrites&) = delete;

  [[nodiscard]] std::size_t writes_seen() const noexcept {
    return writes_seen_;
  }

 private:
  std::size_t writes_seen_ = 0;
};

}  // namespace jitise::testing
