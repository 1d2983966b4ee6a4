// Test-only reference interpreter.
//
// `vm::reference::Machine` executes the IR one instruction at a time: it
// bumps the four profile counters per instruction, looks the cost up by
// (op, type), copies the whole constant frame on every call and finds each
// phi's incoming arc by linear scan. `vm::Machine` runs a decoded form that
// counts whole segments and folds the counts into the profile at run ends. VmDecoded.MatchesReference in vm_test.cpp holds the
// two to identical results, profiles, windows and traps on fresh machines,
// and VmDecoded.RepeatedRunsMatchReference across repeated runs and
// clear_profile(). Keep these bodies unchanged: they are the specification.
#pragma once

#include <algorithm>
#include <deque>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "vm/eval.hpp"
#include "vm/interpreter.hpp"

namespace jitise::vm::reference {

class Machine {
 public:
  explicit Machine(const ir::Module& module, CostModel cost = {},
                   std::uint32_t memory_bytes = 16u << 20)
      : module_(module), cost_(cost), memory_(memory_bytes) {
    const_frames_.resize(module_.functions.size());
    const_ready_.assign(module_.functions.size(), false);
    profile_.block_counts.resize(module_.functions.size());
    for (std::size_t f = 0; f < module_.functions.size(); ++f)
      profile_.block_counts[f].assign(module_.functions[f].blocks.size(), 0);
    reset_memory();
  }

  void reset_memory() {
    memory_ = Memory(memory_.size());
    global_addr_.clear();
    global_addr_.reserve(module_.globals.size());
    for (const ir::Global& g : module_.globals) {
      const std::uint32_t addr = memory_.reserve_static(g.size_bytes);
      if (!g.init.empty())
        memory_.write_bytes(addr, g.init.data(),
                            std::min<std::size_t>(g.init.size(), g.size_bytes));
      global_addr_.push_back(addr);
    }
    memory_.seal_statics();
  }

  void set_custom_handler(CustomOpHandler handler) {
    custom_ = std::move(handler);
  }

  RunResult run(ir::FuncId fn, std::span<const Slot> args,
                std::uint64_t max_steps = 1ull << 32) {
    steps_left_ = max_steps;
    run_steps_ = 0;
    run_cycles_ = 0;
    RunResult result;
    result.ret = exec_function(fn, args, 0);
    result.steps = run_steps_;
    result.cycles = run_cycles_;
    if (windowing_ && window_config_.per_run) close_window();
    return result;
  }
  RunResult run(std::string_view fn_name, std::span<const Slot> args,
                std::uint64_t max_steps = 1ull << 32) {
    const auto id = module_.find_function(fn_name);
    if (id < 0)
      throw ExecutionError("no such function: " + std::string(fn_name));
    return run(static_cast<ir::FuncId>(id), args, max_steps);
  }

  [[nodiscard]] const Profile& profile() const noexcept { return profile_; }
  [[nodiscard]] Profile snapshot() const { return profile_; }

  void clear_profile() noexcept {
    profile_.clear();
    if (windowing_) window_base_.clear();
  }

  void enable_windowing(const WindowConfig& config) {
    windowing_ = true;
    window_config_ = config;
    if (window_config_.ring_capacity == 0) window_config_.ring_capacity = 1;
    window_base_ = profile_;
  }

  bool close_window() {
    if (!windowing_) return false;
    Profile delta = profile_.diff(window_base_);
    window_base_ = profile_;
    if (delta.empty()) return false;
    windows_.push_back(ProfileWindow{windows_closed_++, std::move(delta)});
    while (windows_.size() > window_config_.ring_capacity) windows_.pop_front();
    return true;
  }

  [[nodiscard]] const std::deque<ProfileWindow>& windows() const noexcept {
    return windows_;
  }
  [[nodiscard]] std::uint64_t windows_closed() const noexcept {
    return windows_closed_;
  }

 private:
  struct Frame {
    std::vector<Slot> regs;
    std::uint32_t stack_mark = 0;
  };

  Slot exec_function(ir::FuncId fn_id, std::span<const Slot> args,
                     unsigned depth) {
    using ir::BlockId;
    using ir::Instruction;
    using ir::Opcode;
    using ir::ValueId;
    if (depth > 512) throw ExecutionError("call depth limit exceeded");
    const ir::Function& f = module_.functions[fn_id];
    if (args.size() != f.params.size())
      throw ExecutionError("arity mismatch calling @" + f.name);

    // Lazily prepare the constant preset frame for this function.
    if (!const_ready_[fn_id]) {
      auto& cf = const_frames_[fn_id];
      cf.assign(f.values.size(), Slot{});
      for (ValueId v = 0; v < f.values.size(); ++v) {
        const Instruction& inst = f.values[v];
        if (inst.op == Opcode::ConstInt) cf[v] = Slot::of_int(inst.imm);
        else if (inst.op == Opcode::ConstFloat) cf[v] = Slot::of_float(inst.fimm);
      }
      const_ready_[fn_id] = true;
    }

    Frame frame;
    frame.regs = const_frames_[fn_id];
    frame.stack_mark = memory_.stack_mark();
    for (std::size_t i = 0; i < args.size(); ++i) frame.regs[i] = args[i];

    auto& block_counts = profile_.block_counts[fn_id];
    BlockId cur = 0;
    BlockId prev = ir::kNoBlock;
    std::vector<Slot> phi_staging;

    for (;;) {
      ++block_counts[cur];
      const ir::BasicBlock& block = f.blocks[cur];

      // Phase 1: evaluate all phis against the incoming edge (parallel copy).
      std::size_t pos = 0;
      phi_staging.clear();
      while (pos < block.instrs.size() &&
             f.values[block.instrs[pos]].op == Opcode::Phi) {
        const Instruction& phi = f.values[block.instrs[pos]];
        bool found = false;
        for (std::size_t k = 0; k < phi.phi_blocks.size(); ++k) {
          if (phi.phi_blocks[k] == prev) {
            phi_staging.push_back(frame.regs[phi.operands[k]]);
            found = true;
            break;
          }
        }
        if (!found) throw ExecutionError("phi without arc for incoming edge in @" + f.name);
        ++pos;
      }
      for (std::size_t k = 0; k < phi_staging.size(); ++k) {
        const ValueId v = block.instrs[k];
        frame.regs[v] = phi_staging[k];
        ++run_steps_;
        ++profile_.dyn_instructions;
        ++profile_.opcode_counts[static_cast<std::size_t>(Opcode::Phi)];
      }
      if (run_steps_ > steps_left_) throw ExecutionError("step budget exceeded");

      // Phase 2: straight-line execution to the terminator.
      for (; pos < block.instrs.size(); ++pos) {
        const ValueId v = block.instrs[pos];
        const Instruction& inst = f.values[v];
        ++run_steps_;
        ++profile_.dyn_instructions;
        ++profile_.opcode_counts[static_cast<std::size_t>(inst.op)];
        const std::uint32_t cyc = cost_.cycles(inst.op, inst.type);
        run_cycles_ += cyc;
        profile_.cpu_cycles += cyc;
        if (run_steps_ > steps_left_) throw ExecutionError("step budget exceeded");

        switch (inst.op) {
          case Opcode::Br:
            prev = cur;
            cur = inst.aux;
            goto next_block;
          case Opcode::CondBr:
            prev = cur;
            cur = (frame.regs[inst.operands[0]].i != 0) ? inst.aux : inst.aux2;
            goto next_block;
          case Opcode::Ret: {
            Slot r{};
            if (!inst.operands.empty()) r = frame.regs[inst.operands[0]];
            memory_.stack_release(frame.stack_mark);
            return r;
          }
          default:
            frame.regs[v] = eval_instruction(f, inst, frame, depth);
            break;
        }
      }
      throw ExecutionError("fell off the end of block in @" + f.name);
    next_block:;
    }
  }

  Slot eval_instruction(const ir::Function& f, const ir::Instruction& inst,
                        Frame& frame, unsigned depth) {
    using ir::Opcode;
    using ir::Type;
    const auto iop = [&](std::size_t k) { return frame.regs[inst.operands[k]].i; };
    const Type t = inst.type;

    // Side-effect-free operations share their semantics with the
    // custom-instruction simulator via eval_pure().
    if (is_pure_op(inst.op)) {
      Slot ops[3];
      const std::size_t n = std::min<std::size_t>(inst.operands.size(), 3);
      for (std::size_t k = 0; k < n; ++k) ops[k] = frame.regs[inst.operands[k]];
      PureOp spec;
      spec.op = inst.op;
      spec.type = t;
      spec.src_type =
          inst.operands.empty() ? t : f.values[inst.operands[0]].type;
      spec.aux = inst.aux;
      spec.imm = inst.imm;
      return eval_pure(spec, std::span<const Slot>(ops, n));
    }

    switch (inst.op) {
      case Opcode::Alloca:
        return Slot::of_int(memory_.stack_alloc(static_cast<std::uint32_t>(inst.imm)));
      case Opcode::Load: {
        const auto addr = static_cast<std::uint32_t>(iop(0));
        switch (t) {
          case Type::I1:  return Slot::of_int(memory_.read<std::uint8_t>(addr) & 1);
          case Type::I8:  return Slot::of_int(memory_.read<std::int8_t>(addr));
          case Type::I16: return Slot::of_int(memory_.read<std::int16_t>(addr));
          case Type::I32: return Slot::of_int(memory_.read<std::int32_t>(addr));
          case Type::I64: return Slot::of_int(memory_.read<std::int64_t>(addr));
          case Type::Ptr: return Slot::of_int(memory_.read<std::uint32_t>(addr));
          case Type::F32: return Slot::of_float(memory_.read<float>(addr));
          case Type::F64: return Slot::of_float(memory_.read<double>(addr));
          case Type::Void: break;
        }
        throw ExecutionError("load of void");
      }
      case Opcode::Store: {
        const Slot val = frame.regs[inst.operands[0]];
        const Type vt = f.values[inst.operands[0]].type;
        const auto addr = static_cast<std::uint32_t>(iop(1));
        switch (vt) {
          case Type::I1:  memory_.write<std::uint8_t>(addr, val.i & 1); break;
          case Type::I8:  memory_.write<std::int8_t>(addr, static_cast<std::int8_t>(val.i)); break;
          case Type::I16: memory_.write<std::int16_t>(addr, static_cast<std::int16_t>(val.i)); break;
          case Type::I32: memory_.write<std::int32_t>(addr, static_cast<std::int32_t>(val.i)); break;
          case Type::I64: memory_.write<std::int64_t>(addr, val.i); break;
          case Type::Ptr: memory_.write<std::uint32_t>(addr, static_cast<std::uint32_t>(val.i)); break;
          case Type::F32: memory_.write<float>(addr, static_cast<float>(val.f)); break;
          case Type::F64: memory_.write<double>(addr, val.f); break;
          case Type::Void: throw ExecutionError("store of void");
        }
        return Slot{};
      }
      case Opcode::GlobalAddr:
        return Slot::of_int(global_addr_[inst.aux]);
      case Opcode::Call: {
        std::vector<Slot> args(inst.operands.size());
        for (std::size_t i = 0; i < args.size(); ++i)
          args[i] = frame.regs[inst.operands[i]];
        return exec_function(inst.aux, args, depth + 1);
      }
      case Opcode::CustomOp: {
        if (!custom_)
          throw ExecutionError("custom instruction executed without a handler");
        std::vector<Slot> inputs(inst.operands.size());
        for (std::size_t i = 0; i < inputs.size(); ++i)
          inputs[i] = frame.regs[inst.operands[i]];
        const CustomExec ce = custom_(inst.aux, inputs);
        // The base-cost of 1 cycle was already charged; add the remainder.
        const std::uint32_t extra = ce.cycles > 0 ? ce.cycles - 1 : 0;
        run_cycles_ += extra;
        profile_.cpu_cycles += extra;
        return ce.result;
      }
      default:
        throw ExecutionError(std::string("unexpected opcode ") +
                             std::string(ir::opcode_name(inst.op)));
    }
  }

  const ir::Module& module_;
  CostModel cost_;
  Memory memory_;
  std::vector<std::uint32_t> global_addr_;
  Profile profile_;
  CustomOpHandler custom_;
  std::uint64_t steps_left_ = 0;
  std::uint64_t run_steps_ = 0;
  std::uint64_t run_cycles_ = 0;
  bool windowing_ = false;
  WindowConfig window_config_;
  Profile window_base_;
  std::deque<ProfileWindow> windows_;
  std::uint64_t windows_closed_ = 0;
  std::vector<std::vector<Slot>> const_frames_;
  std::vector<bool> const_ready_;
};

}  // namespace jitise::vm::reference
