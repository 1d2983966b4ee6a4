#include "vm/memory.hpp"

#include <sys/mman.h>

#include <new>

namespace jitise::vm {

Memory::Memory(std::uint32_t size_bytes) : bytes_(nullptr, Unmap{size_bytes}) {
  if (size_bytes == 0) return;
  void* p = ::mmap(nullptr, size_bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  bytes_.reset(static_cast<std::uint8_t*>(p));
}

void Memory::Unmap::operator()(std::uint8_t* bytes) const noexcept {
  ::munmap(bytes, size);
}

void Memory::out_of_range(std::uint32_t addr) {
  throw MemoryFault("access out of range at address " + std::to_string(addr));
}

}  // namespace jitise::vm
