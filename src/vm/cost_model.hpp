// Cycle-cost model of the Woolcano base CPU (PowerPC 405 hard core in the
// Virtex-4 FX).
//
// Key property driving the paper's results: the PPC405 has NO hardware FPU,
// so floating-point operations are software-emulated and cost tens of cycles
// — which is exactly why float-heavy embedded kernels (whetstone: 17.8x)
// gain so much from custom instructions that implement the whole dataflow
// in FPGA logic.
#pragma once

#include <array>
#include <cstdint>

#include "ir/opcode.hpp"
#include "ir/type.hpp"

namespace jitise::vm {

/// Per-opcode latencies in CPU cycles plus core clock. Defaults model a
/// PPC405 at 300 MHz (the Woolcano prototype clock).
struct CostModel {
  double clock_hz = 300e6;

  // Integer pipeline.
  std::uint32_t int_alu = 1;      // add/sub/logic/shift/cmp/select
  std::uint32_t int_mul = 4;      // 32x32 multiply
  std::uint32_t int_div = 35;     // microcoded divide
  // Software-emulated floating point (no FPU on the PPC405).
  std::uint32_t fp_add = 55;
  std::uint32_t fp_mul = 70;
  std::uint32_t fp_div = 160;
  std::uint32_t fp_cmp = 40;
  std::uint32_t fp_conv = 45;
  // Memory: the Woolcano prototype accesses DDR through the PLB without a
  // data-cache model — loads are expensive, which is why memory operations
  // both bound candidate sizes and dilute the achievable speedups of
  // memory-heavy (scientific) kernels.
  std::uint32_t mem_load = 30;
  std::uint32_t mem_store = 20;
  std::uint32_t addr_calc = 1;    // gep / gaddr / alloca bookkeeping
  // Control.
  std::uint32_t branch = 3;       // taken-branch penalty dominated
  std::uint32_t call = 10;        // prologue/epilogue amortized

  /// Cycles for one dynamic execution of `op` at type `t` on the base CPU.
  [[nodiscard]] std::uint32_t cycles(ir::Opcode op, ir::Type t) const noexcept {
    using ir::Opcode;
    switch (op) {
      case Opcode::Add: case Opcode::Sub:
      case Opcode::And: case Opcode::Or: case Opcode::Xor:
      case Opcode::Shl: case Opcode::LShr: case Opcode::AShr:
        // 64-bit ops take two issue slots on the 32-bit core.
        return int_alu * (ir::bit_width(t) > 32 ? 2 : 1);
      case Opcode::Select:
        // No conditional move on the PPC405: a select compiles to a 3-4
        // instruction compare/branch or mask sequence.
        return int_alu * 3;
      case Opcode::ICmp:
        return int_alu;
      case Opcode::Mul:
        return int_mul * (ir::bit_width(t) > 32 ? 3 : 1);
      case Opcode::SDiv: case Opcode::UDiv:
      case Opcode::SRem: case Opcode::URem:
        return int_div * (ir::bit_width(t) > 32 ? 2 : 1);
      case Opcode::FAdd: case Opcode::FSub:
        return fp_add;
      case Opcode::FMul:
        return fp_mul;
      case Opcode::FDiv:
        return fp_div;
      case Opcode::FCmp:
        return fp_cmp;
      case Opcode::FPToSI: case Opcode::SIToFP:
      case Opcode::FPExt: case Opcode::FPTrunc:
        return fp_conv;
      case Opcode::ZExt: case Opcode::SExt: case Opcode::Trunc:
        return int_alu;
      case Opcode::Load:
        return mem_load;
      case Opcode::Store:
        return mem_store;
      case Opcode::Gep: case Opcode::GlobalAddr: case Opcode::Alloca:
        return addr_calc;
      case Opcode::Br: case Opcode::CondBr: case Opcode::Ret:
        return branch;
      case Opcode::Call:
        return call;
      case Opcode::Phi:
        return 0;  // register shuffling folded into the branch
      case Opcode::CustomOp:
        return 1;  // replaced by the FCM latency in the ASIP model
      case Opcode::Param: case Opcode::ConstInt: case Opcode::ConstFloat:
        return 0;
    }
    return 1;
  }

  [[nodiscard]] double seconds(std::uint64_t cycle_count) const noexcept {
    return static_cast<double>(cycle_count) / clock_hz;
  }
};

}  // namespace jitise::vm
