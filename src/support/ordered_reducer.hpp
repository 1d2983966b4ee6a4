// Deterministic fan-in for indexed parallel work: producers complete tasks
// in any order on any thread, the single consumer absorbs results strictly
// by index. This is the mechanism that lets the specializer's candidate
// search run per-block tasks on the pool while keeping every order-sensitive
// effect (artifact order, observer events) bit-identical to a serial loop.
//
// Protocol: exactly one `put(i, ...)` per index from any thread, exactly one
// `take(i)` per index from the consumer. `take` blocks until the slot is
// filled and moves the value out. Slots are pre-sized at construction, so
// producers and the consumer never contend on allocation, only on the one
// mutex guarding the ready flags.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

namespace jitise::support {

/// T must be default-constructible and movable.
template <typename T>
class OrderedReducer {
 public:
  explicit OrderedReducer(std::size_t count)
      : slots_(count), ready_(count, 0) {}

  OrderedReducer(const OrderedReducer&) = delete;
  OrderedReducer& operator=(const OrderedReducer&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }

  /// Fills slot `index` (producer side; each index exactly once).
  void put(std::size_t index, T value) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      slots_[index] = std::move(value);
      ready_[index] = 1;
    }
    // notify_all: the consumer may be waiting on any not-yet-ready index.
    ready_cv_.notify_all();
  }

  /// Blocks until slot `index` is filled, then moves its value out
  /// (consumer side; each index exactly once).
  [[nodiscard]] T take(std::size_t index) {
    std::unique_lock<std::mutex> lock(mu_);
    ready_cv_.wait(lock, [&] { return ready_[index] != 0; });
    return std::move(slots_[index]);
  }

 private:
  std::mutex mu_;
  std::condition_variable ready_cv_;
  std::vector<T> slots_;
  std::vector<unsigned char> ready_;  // not vector<bool>: distinct addresses
};

}  // namespace jitise::support
