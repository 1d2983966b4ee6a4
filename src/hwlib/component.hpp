// The circuit library: pre-characterized hardware IP cores for every
// (operation, bit-width) pair — the stand-in for the paper's PivPav database
// of pre-synthesized cores with their measured metrics [8].
//
// Numbers are Virtex-4 (-10 speed grade) era estimates: carry-chain adders,
// DSP48 multipliers, combinational array dividers, and soft floating-point
// cores. They drive (a) the HW/SW performance estimation that ranks
// candidates and (b) the synthetic netlists that feed the CAD flow.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "hwlib/netlist.hpp"
#include "ir/opcode.hpp"
#include "ir/type.hpp"

namespace jitise::hwlib {

/// Static metrics of one IP core.
struct ComponentRecord {
  std::string name;       // e.g. "add_i32", "fmul_f64"
  ir::Opcode op = ir::Opcode::Add;
  ir::Type type = ir::Type::I32;

  double latency_ns = 0.0;      // combinational latency through the core
  std::uint32_t luts = 0;       // 4-input LUTs
  std::uint32_t ffs = 0;        // flip-flops (pipeline/interface regs)
  std::uint32_t slices = 0;     // Virtex-4 slices (2 LUT + 2 FF each)
  std::uint32_t dsps = 0;       // DSP48 blocks
  std::uint32_t brams = 0;      // 18 kb block RAMs
  double power_mw = 0.0;        // dynamic power estimate at 100 MHz
  std::uint32_t pipeline_depth = 0;  // stages when pipelined (0 = comb.)
  double max_freq_mhz = 0.0;    // registered top speed

  /// Flat metric listing (PivPav exposes >90 per core; we expose the set the
  /// tool flow consumes plus derived ones — see DESIGN.md §2).
  [[nodiscard]] std::vector<std::pair<std::string, double>> metrics() const;
};

/// A component's netlist with its designated boundary nets.
struct ComponentNetlist {
  Netlist netlist;
  std::vector<NetId> input_nets;  // one per operand
  NetId output_net = kNoNet;
};

/// The circuit database: metric records plus a netlist cache. Netlist
/// extraction is memoized per (op, type) exactly like PivPav's database of
/// pre-synthesized cores — repeated extraction is a cache hit and skips
/// "synthesis" of the component.
///
/// Thread-safe: record()/netlist() may be called concurrently (a pipeline
/// run shares one database between its serial search and its CAD worker
/// tasks, which generate netlists side by side). The hot path — a lookup
/// that hits — takes only a shared (reader) lock, so concurrent readers do
/// not serialize on the database once it is warm; a miss upgrades to an
/// exclusive lock and re-checks before inserting. The node-based maps
/// guarantee returned references stay valid after the lock is released, and
/// hit/miss counters are atomics so reader-path accounting stays
/// contention-free.
class CircuitDb {
 public:
  /// Metric record for an operation at a type. Computed deterministically
  /// from the characterization formulas; throws for ops that can never be
  /// in hardware (memory, control).
  [[nodiscard]] const ComponentRecord& record(ir::Opcode op, ir::Type type);

  /// Cached structural netlist of the core.
  [[nodiscard]] const ComponentNetlist& netlist(ir::Opcode op, ir::Type type);

  [[nodiscard]] std::uint64_t netlist_cache_hits() const {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t netlist_cache_misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t size() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return records_.size();
  }

 private:
  static std::uint32_t key(ir::Opcode op, ir::Type type) noexcept {
    return (static_cast<std::uint32_t>(op) << 8) | static_cast<std::uint32_t>(type);
  }
  const ComponentRecord& record_exclusive(ir::Opcode op, ir::Type type);

  mutable std::shared_mutex mu_;
  // node-based maps: returned references stay valid across later queries
  std::map<std::uint32_t, ComponentRecord> records_;
  std::map<std::uint32_t, ComponentNetlist> netlists_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

/// Characterization formulas (exposed for tests/benches).
[[nodiscard]] ComponentRecord characterize_component(ir::Opcode op, ir::Type type);
[[nodiscard]] ComponentNetlist build_component_netlist(const ComponentRecord& rec,
                                                       unsigned operand_count);

/// Operand count of `op` as a hardware core (binops 2, select 3, casts 1...).
[[nodiscard]] unsigned hw_operand_count(ir::Opcode op) noexcept;

}  // namespace jitise::hwlib
