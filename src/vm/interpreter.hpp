// The virtual machine: an IR interpreter with execution profiling.
//
// This is the stand-in for the LLVM VM of the paper's tool flow. It provides
// the two things the ASIP specialization process needs at runtime:
//   1. functional execution of the application (with results, for the
//      differential tests of the binary rewriter), and
//   2. a profile: per-basic-block execution counts and dynamic cycle counts
//      under the PPC405 cost model, which drive pruning, estimation,
//      coverage classification and break-even analysis.
//
// Decoded form. A function is decoded on its first call into a flat op array:
// operand slots and the op's cycle cost inline, one op kind per hot
// (opcode, type) pair and per i32 compare predicate, every kind a case of
// one dispatch switch, phis lowered to one parallel-copy list per CFG edge.
// Each call's registers are a frame bump-allocated on one Machine-owned
// stack. The module must not change while a Machine built on it lives: the
// decoded form is never rebuilt.
//
// Exact profiles. A *segment* is a block's instructions up to and including
// each Call, or up to the terminator. Besides the block count at block
// entry, entering a segment only bumps its execution counter, advances the
// run's step count by its length and checks the step budget. A *fold*
// turns the counters into the profile's instruction, cycle and opcode totals
// and the run's cycles (each counter times its segment's precomputed cycle
// and opcode totals, plus a correction record) and resets them. It runs at
// every run end, normal or throwing, and visits only the functions entered
// during the run. So profile() and snapshot() are current between runs,
// which is where callers read them and where windows close. Everything
// observable matches counting one instruction at a time:
//   - a block's phis count as one group (0 cycles) followed by one step
//     budget check; a phi without an arc for the incoming edge throws at block
//     entry, after the block count;
//   - a segment that would cross the step budget runs one instruction at a
//     time, so the error fires at the same instruction with the same counts;
//   - a trap counts the trapping instruction but not the rest of its segment;
//   - a block without a terminator runs its instructions, then throws.
// The correction record holds what segment counts cannot: the
// one-at-a-time accounting of the segment where the budget ran out, the
// un-counted tail of a trapped segment, and custom ops' extra cycles.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ir/module.hpp"
#include "vm/cost_model.hpp"
#include "vm/memory.hpp"

namespace jitise::vm {

/// One SSA register: integer/pointer values live in `i`, floats in `f`.
struct Slot {
  std::int64_t i = 0;
  double f = 0.0;

  static Slot of_int(std::int64_t v) noexcept { return Slot{v, 0.0}; }
  static Slot of_float(double v) noexcept { return Slot{0, v}; }
};

/// Execution profile accumulated across one or more run() calls.
struct Profile {
  /// block_counts[function][block] = number of executions.
  std::vector<std::vector<std::uint64_t>> block_counts;
  std::uint64_t dyn_instructions = 0;  // dynamic block-instruction executions
  std::uint64_t cpu_cycles = 0;        // per the PPC405 cost model
  std::array<std::uint64_t, ir::kNumOpcodes> opcode_counts{};

  void clear() noexcept {
    for (auto& f : block_counts) std::fill(f.begin(), f.end(), 0);
    dyn_instructions = 0;
    cpu_cycles = 0;
    opcode_counts.fill(0);
  }

  /// Fieldwise `*this - earlier`: the activity between two snapshots of one
  /// accumulating profile. `earlier` must be a snapshot of the *same* module
  /// taken no later than this one — a shape mismatch throws
  /// std::invalid_argument; counter underflow is the caller's ordering bug.
  [[nodiscard]] Profile diff(const Profile& earlier) const;

  /// True when no dynamic activity has been recorded.
  [[nodiscard]] bool empty() const noexcept { return dyn_instructions == 0; }
};

/// One closed profiling window: the profile delta between two consecutive
/// epoch boundaries, plus its position in the stream of closed windows.
struct ProfileWindow {
  std::uint64_t index = 0;  // 0-based, counts windows ever closed
  Profile delta;
};

/// Epoch boundaries for windowed profiling (Machine::enable_windowing).
struct WindowConfig {
  /// Close a window at the end of every run() call.
  bool per_run = true;
  /// Bound on retained windows: once full, the oldest falls off the ring
  /// (the stream index keeps counting). Clamped to >= 1.
  std::size_t ring_capacity = 64;
};

/// Thrown when execution exceeds the step budget or traps.
class ExecutionError : public std::runtime_error {
 public:
  explicit ExecutionError(const std::string& what) : std::runtime_error(what) {}
};

struct RunResult {
  Slot ret;
  std::uint64_t steps = 0;       // dynamic instructions this run
  std::uint64_t cycles = 0;      // modeled CPU cycles this run
};

/// Result and HW cycle cost of one custom-instruction execution.
struct CustomExec {
  Slot result;
  std::uint32_t cycles = 1;
};

/// Semantics of CustomOp: (custom-instruction id, live-in values) -> result.
/// Installed by the Woolcano ASIP model after the adaptation phase.
using CustomOpHandler =
    std::function<CustomExec(std::uint32_t ci, std::span<const Slot> inputs)>;

/// A loaded module + memory image, ready to execute.
///
/// Globals are placed into memory at construction (and on reset_memory());
/// the profile accumulates across runs until clear_profile(). `module` must
/// outlive the Machine and stay unchanged while it lives.
class Machine {
 public:
  explicit Machine(const ir::Module& module, CostModel cost = {},
                   std::uint32_t memory_bytes = 16u << 20);
  ~Machine();

  /// Replaces memory with a fresh all-zero image and re-places the globals;
  /// keeps the profile.
  void reset_memory();

  [[nodiscard]] Memory& memory() noexcept { return memory_; }
  [[nodiscard]] const Memory& memory() const noexcept { return memory_; }
  [[nodiscard]] std::uint32_t global_address(ir::GlobalId g) const {
    return global_addr_.at(g);
  }
  [[nodiscard]] const ir::Module& module() const noexcept { return module_; }
  [[nodiscard]] const CostModel& cost_model() const noexcept { return cost_; }

  void set_custom_handler(CustomOpHandler handler) {
    custom_ = std::move(handler);
  }

  /// Executes `fn` with `args`. Throws ExecutionError on trap or when the
  /// dynamic instruction count of this run exceeds `max_steps`. A throwing
  /// run leaves the profile counting up to and including the instruction
  /// that threw, and does not release the allocas of the frames it unwinds.
  RunResult run(ir::FuncId fn, std::span<const Slot> args,
                std::uint64_t max_steps = 1ull << 32);
  RunResult run(std::string_view fn_name, std::span<const Slot> args,
                std::uint64_t max_steps = 1ull << 32);

  /// The accumulated profile, current between runs (not from inside a run,
  /// e.g. from a custom-op handler).
  [[nodiscard]] const Profile& profile() const noexcept { return profile_; }
  /// A copy of the accumulated profile that does not disturb accumulation;
  /// pairs with Profile::diff for snapshot-and-subtract windowing without
  /// the information loss of clear_profile(). Current where profile() is.
  [[nodiscard]] Profile snapshot() const { return profile_; }
  /// Zeroes the profile between runs.
  void clear_profile() noexcept;

  /// Switches the machine into windowed profiling: the accumulated profile
  /// keeps growing monotonically, and in addition every epoch boundary
  /// (end of run, or explicit close_window between runs) emits the
  /// since-last-boundary delta into a bounded ring — a long-running tenant
  /// then produces a profile *stream*, not just a monotone accumulator.
  /// (Re-)enabling anchors the first window at the current accumulated
  /// state; empty deltas are never emitted.
  void enable_windowing(const WindowConfig& config);
  [[nodiscard]] bool windowing() const noexcept { return windowing_; }
  /// Closes the current window now. Returns whether a window was emitted
  /// (an empty delta is dropped but still re-anchors the next window).
  bool close_window();
  /// Closed windows still in the ring, oldest first.
  [[nodiscard]] const std::deque<ProfileWindow>& windows() const noexcept {
    return windows_;
  }
  /// Windows ever closed, including ones that have fallen off the ring.
  [[nodiscard]] std::uint64_t windows_closed() const noexcept {
    return windows_closed_;
  }

 private:
  enum class Kind : std::uint8_t;
  struct Decoded;
  struct Op;
  struct Edge;
  struct Segment;
  class Decoder;

  // Counts the fold adds besides the segment counters'. An un-count
  // subtracts, modulo 2^64.
  struct Correction {
    std::uint64_t cycles = 0;
    std::array<std::uint64_t, ir::kNumOpcodes> opcode_counts{};
  };

  void place_globals();
  Decoded& decoded(ir::FuncId fn);
  Slot exec(ir::FuncId fn, std::uint32_t base, std::size_t nargs,
            unsigned depth);
  const Op* enter(Decoded& d, const Edge& edge, ir::FuncId fn, Slot* regs,
                  std::uint64_t* block_counts, std::uint64_t* executed);
  void count(const Decoded& d, std::uint32_t segment, const Op* first,
             Slot* regs, std::uint64_t* executed);
  [[noreturn]] void exhaust(const Decoded& d, const Segment& seg,
                            const Op* op, Slot* regs);
  void uncount_rest(const Op* op) noexcept;
  template <Kind K>
  void step(const Decoded& d, const Op& op, Slot* regs);
  std::uint64_t fold() noexcept;

  const ir::Module& module_;
  CostModel cost_;
  Memory memory_;
  std::vector<std::uint32_t> global_addr_;
  Profile profile_;
  CustomOpHandler custom_;
  // The current run: its step budget and its steps so far.
  std::uint64_t budget_ = 0;
  std::uint64_t run_steps_ = 0;
  Correction correction_;
  // Functions entered since the last fold.
  std::vector<ir::FuncId> entered_;
  // Windowed profiling (enable_windowing).
  bool windowing_ = false;
  WindowConfig window_config_;
  Profile window_base_;
  std::deque<ProfileWindow> windows_;
  std::uint64_t windows_closed_ = 0;
  // Per-function decoded form, built on the function's first call.
  std::vector<std::unique_ptr<Decoded>> decoded_;
  // The register stack: each active call's frame, innermost last. Growing it
  // moves every frame, so a caller re-derives its frame pointer after a call.
  std::vector<Slot> regs_;
};

}  // namespace jitise::vm
