// Flat byte-addressable memory for the virtual machine.
//
// Layout: [0, globals_end) static globals | [globals_end, stack_end) stack
// (per-frame alloca areas, bump-allocated) | [stack_end, heap_end) heap.
// Addresses are 32-bit (the PPC405 is a 32-bit core). Address 0 is reserved
// so that null pointers trap.
//
// The image is one anonymous memory mapping: the kernel zero-fills a page on
// first touch, so constructing a 16 MiB image costs nothing up front and a
// run pays only for the pages it uses.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>

namespace jitise::vm {

class MemoryFault : public std::runtime_error {
 public:
  explicit MemoryFault(const std::string& what) : std::runtime_error(what) {}
};

class Memory {
 public:
  /// `size_bytes` total, all zero; default 16 MiB is ample for all benchmark
  /// inputs. Throws std::bad_alloc if the image cannot be mapped. Move-only.
  explicit Memory(std::uint32_t size_bytes = 16u << 20);

  [[nodiscard]] std::uint32_t size() const noexcept {
    return bytes_.get_deleter().size;
  }

  /// Reserves `n` bytes at the current static watermark (globals, then the
  /// stack base). Returns the base address. Addresses start at 16 so that
  /// low addresses act as a null guard.
  std::uint32_t reserve_static(std::uint32_t n) {
    const std::uint32_t base = static_top_;
    check_range(base, n);
    static_top_ += align8(n);
    return base;
  }

  /// Stack frame management for alloca (LIFO).
  [[nodiscard]] std::uint32_t stack_mark() const noexcept { return stack_top_; }
  std::uint32_t stack_alloc(std::uint32_t n) {
    const std::uint32_t base = stack_top_;
    check_range(base, n);
    stack_top_ += align8(n);
    if (stack_top_ > size()) throw MemoryFault("stack overflow");
    return base;
  }
  void stack_release(std::uint32_t mark) noexcept { stack_top_ = mark; }

  /// Positions the stack after the last static byte; call once after all
  /// globals have been placed.
  void seal_statics() { stack_top_ = static_top_; }

  template <typename T>
  [[nodiscard]] T read(std::uint32_t addr) const {
    check_range(addr, sizeof(T));
    T v;
    std::memcpy(&v, bytes_.get() + addr, sizeof(T));
    return v;
  }

  template <typename T>
  void write(std::uint32_t addr, T v) {
    check_range(addr, sizeof(T));
    std::memcpy(bytes_.get() + addr, &v, sizeof(T));
  }

  void write_bytes(std::uint32_t addr, const std::uint8_t* data, std::size_t n) {
    check_range(addr, static_cast<std::uint32_t>(n));
    std::memcpy(bytes_.get() + addr, data, n);
  }

 private:
  static std::uint32_t align8(std::uint32_t n) noexcept { return (n + 7u) & ~7u; }

  void check_range(std::uint32_t addr, std::uint64_t n) const {
    if (addr < 16 || static_cast<std::uint64_t>(addr) + n > size())
      out_of_range(addr);
  }
  [[noreturn]] static void out_of_range(std::uint32_t addr);

  struct Unmap {
    std::uint32_t size = 0;
    void operator()(std::uint8_t* bytes) const noexcept;
  };
  std::unique_ptr<std::uint8_t, Unmap> bytes_;
  std::uint32_t static_top_ = 16;
  std::uint32_t stack_top_ = 16;
};

}  // namespace jitise::vm
