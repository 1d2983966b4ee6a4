#include "vm/eval.hpp"

#include <cstdint>

#include "vm/interpreter.hpp"

namespace jitise::vm {

void pure::division_by_zero() {
  throw ExecutionError("integer division by zero");
}

Slot eval_pure(const PureOp& spec, std::span<const Slot> ops) {
  using ir::Opcode;
  const ir::Type t = spec.type;
  const auto i = [&](std::size_t k) { return ops[k].i; };
  const auto f = [&](std::size_t k) { return ops[k].f; };

  switch (spec.op) {
    case Opcode::Add: return Slot::of_int(pure::add(t, i(0), i(1)));
    case Opcode::Sub: return Slot::of_int(pure::sub(t, i(0), i(1)));
    case Opcode::Mul: return Slot::of_int(pure::mul(t, i(0), i(1)));
    case Opcode::SDiv: return Slot::of_int(pure::sdiv(t, i(0), i(1)));
    case Opcode::SRem: return Slot::of_int(pure::srem(t, i(0), i(1)));
    case Opcode::UDiv: return Slot::of_int(pure::udiv(t, i(0), i(1)));
    case Opcode::URem: return Slot::of_int(pure::urem(t, i(0), i(1)));
    case Opcode::And: return Slot::of_int(pure::bit_and(t, i(0), i(1)));
    case Opcode::Or:  return Slot::of_int(pure::bit_or(t, i(0), i(1)));
    case Opcode::Xor: return Slot::of_int(pure::bit_xor(t, i(0), i(1)));
    case Opcode::Shl: return Slot::of_int(pure::shl(t, i(0), i(1)));
    case Opcode::LShr: return Slot::of_int(pure::lshr(t, i(0), i(1)));
    case Opcode::AShr: return Slot::of_int(pure::ashr(t, i(0), i(1)));
    case Opcode::FAdd: return Slot::of_float(pure::fadd(t, f(0), f(1)));
    case Opcode::FSub: return Slot::of_float(pure::fsub(t, f(0), f(1)));
    case Opcode::FMul: return Slot::of_float(pure::fmul(t, f(0), f(1)));
    case Opcode::FDiv: return Slot::of_float(pure::fdiv(t, f(0), f(1)));
    case Opcode::ICmp:
      return Slot::of_int(pure::icmp(static_cast<ir::ICmpPred>(spec.aux),
                                     spec.src_type, i(0), i(1)) ? 1 : 0);
    case Opcode::FCmp:
      return Slot::of_int(
          pure::fcmp(static_cast<ir::FCmpPred>(spec.aux), f(0), f(1)) ? 1 : 0);
    case Opcode::Select: return pure::select(i(0), ops[1], ops[2]);
    case Opcode::ZExt: return Slot::of_int(pure::zext(spec.src_type, i(0)));
    case Opcode::SExt: return Slot::of_int(pure::sext(i(0)));
    case Opcode::Trunc: return Slot::of_int(pure::trunc(t, i(0)));
    case Opcode::FPToSI: return Slot::of_int(pure::fptosi(t, f(0)));
    case Opcode::SIToFP: return Slot::of_float(pure::sitofp(t, i(0)));
    case Opcode::FPExt: return Slot::of_float(pure::fpext(f(0)));
    case Opcode::FPTrunc: return Slot::of_float(pure::fptrunc(f(0)));
    case Opcode::Gep: return Slot::of_int(pure::gep(i(0), i(1), spec.imm));
    default:
      throw ExecutionError("eval_pure: opcode is not pure");
  }
}

}  // namespace jitise::vm
