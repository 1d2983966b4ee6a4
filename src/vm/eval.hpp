// Pure-operation semantics, defined once for the interpreter and the
// custom-instruction functional simulator.
//
// The Woolcano adaptation phase replaces IR subgraphs with CustomOp
// instructions whose semantics are simulated from a snapshot of the covered
// datapath. The simulator calls eval_pure(); the interpreter calls eval_pure()
// for its generic pure ops and the inline helpers in `pure::` for the
// (op, type) pairs it specializes. eval_pure() itself is a switch over those
// same helpers, so every pure semantic has exactly one definition and a
// rewritten program is semantically equivalent to the original *by
// construction* — the differential tests verify it end to end. Never inline
// an operation's arithmetic anywhere else: add or change a helper here.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>

#include "ir/opcode.hpp"
#include "ir/type.hpp"

namespace jitise::vm {

struct Slot;

/// Static description of one side-effect-free operation.
struct PureOp {
  ir::Opcode op = ir::Opcode::Add;
  ir::Type type = ir::Type::I32;      // result type
  ir::Type src_type = ir::Type::I32;  // operand 0 type (icmp/zext/trunc...)
  std::uint32_t aux = 0;              // comparison predicate
  std::int64_t imm = 0;               // gep stride
};

/// Evaluates a pure op over already-fetched operand values. Throws
/// ExecutionError on division by zero. `operands.size()` must match the
/// opcode's arity.
[[nodiscard]] Slot eval_pure(const PureOp& op, std::span<const Slot> operands);

/// True if `op` can be evaluated by eval_pure (no memory, control, calls).
[[nodiscard]] constexpr bool is_pure_op(ir::Opcode op) noexcept {
  using ir::Opcode;
  if (ir::is_binary(op) || ir::is_cast(op)) return true;
  switch (op) {
    case Opcode::ICmp: case Opcode::FCmp: case Opcode::Select: case Opcode::Gep:
      return true;
    default:
      return false;
  }
}

/// The semantics of each pure op. Integer values are stored sign-extended
/// at their type's width (ir::wrap_to); `t` is the result type.
namespace pure {

using ir::Type;
using i64 = std::int64_t;

/// Throws ExecutionError("integer division by zero").
[[noreturn]] void division_by_zero();

constexpr i64 add(Type t, i64 a, i64 b) noexcept { return ir::wrap_to(t, a + b); }
constexpr i64 sub(Type t, i64 a, i64 b) noexcept { return ir::wrap_to(t, a - b); }
constexpr i64 mul(Type t, i64 a, i64 b) noexcept { return ir::wrap_to(t, a * b); }
constexpr i64 bit_and(Type t, i64 a, i64 b) noexcept { return ir::wrap_to(t, a & b); }
constexpr i64 bit_or(Type t, i64 a, i64 b) noexcept { return ir::wrap_to(t, a | b); }
constexpr i64 bit_xor(Type t, i64 a, i64 b) noexcept { return ir::wrap_to(t, a ^ b); }

/// Signed division and remainder; INT64_MIN / -1 wraps like hardware.
inline i64 sdiv(Type t, i64 a, i64 b) {
  if (b == 0) division_by_zero();
  return ir::wrap_to(t, a == INT64_MIN && b == -1 ? a : a / b);
}
inline i64 srem(Type t, i64 a, i64 b) {
  if (b == 0) division_by_zero();
  return a == INT64_MIN && b == -1 ? 0 : ir::wrap_to(t, a % b);
}
inline i64 udiv(Type t, i64 a, i64 b) {
  if (ir::as_unsigned(t, b) == 0) division_by_zero();
  return ir::wrap_to(t, static_cast<i64>(ir::as_unsigned(t, a) / ir::as_unsigned(t, b)));
}
inline i64 urem(Type t, i64 a, i64 b) {
  if (ir::as_unsigned(t, b) == 0) division_by_zero();
  return ir::wrap_to(t, static_cast<i64>(ir::as_unsigned(t, a) % ir::as_unsigned(t, b)));
}

/// Shift amounts are taken modulo the type's width.
constexpr std::uint64_t shift_amount(Type t, i64 b) noexcept {
  return ir::as_unsigned(t, b) % ir::bit_width(t);
}
constexpr i64 shl(Type t, i64 a, i64 b) noexcept {
  return ir::wrap_to(t, a << shift_amount(t, b));
}
constexpr i64 lshr(Type t, i64 a, i64 b) noexcept {
  return ir::wrap_to(t, static_cast<i64>(ir::as_unsigned(t, a) >> shift_amount(t, b)));
}
constexpr i64 ashr(Type t, i64 a, i64 b) noexcept {
  return ir::wrap_to(t, a >> shift_amount(t, b));
}

/// F32 arithmetic rounds its operands and its result to single precision.
constexpr float f32(double v) noexcept { return static_cast<float>(v); }
constexpr double fadd(Type t, double a, double b) noexcept {
  return t == Type::F32 ? f32(f32(a) + f32(b)) : a + b;
}
constexpr double fsub(Type t, double a, double b) noexcept {
  return t == Type::F32 ? f32(f32(a) - f32(b)) : a - b;
}
constexpr double fmul(Type t, double a, double b) noexcept {
  return t == Type::F32 ? f32(f32(a) * f32(b)) : a * b;
}
constexpr double fdiv(Type t, double a, double b) noexcept {
  return t == Type::F32 ? f32(f32(a) / f32(b)) : a / b;
}

/// `src` is the operand type: unsigned predicates compare at its width.
constexpr bool icmp(ir::ICmpPred p, Type src, i64 a, i64 b) noexcept {
  const std::uint64_t ua = ir::as_unsigned(src, a), ub = ir::as_unsigned(src, b);
  switch (p) {
    case ir::ICmpPred::Eq:  return a == b;
    case ir::ICmpPred::Ne:  return a != b;
    case ir::ICmpPred::Slt: return a < b;
    case ir::ICmpPred::Sle: return a <= b;
    case ir::ICmpPred::Sgt: return a > b;
    case ir::ICmpPred::Sge: return a >= b;
    case ir::ICmpPred::Ult: return ua < ub;
    case ir::ICmpPred::Ule: return ua <= ub;
    case ir::ICmpPred::Ugt: return ua > ub;
    case ir::ICmpPred::Uge: return ua >= ub;
  }
  return false;
}
constexpr bool fcmp(ir::FCmpPred p, double a, double b) noexcept {
  switch (p) {
    case ir::FCmpPred::OEq: return a == b;
    case ir::FCmpPred::ONe: return a != b;
    case ir::FCmpPred::OLt: return a < b;
    case ir::FCmpPred::OLe: return a <= b;
    case ir::FCmpPred::OGt: return a > b;
    case ir::FCmpPred::OGe: return a >= b;
  }
  return false;
}

/// Select: operand 1 when the condition is nonzero, else operand 2.
template <typename T>
constexpr const T& select(i64 cond, const T& if_true, const T& if_false) noexcept {
  return cond != 0 ? if_true : if_false;
}

constexpr i64 zext(Type src, i64 a) noexcept {
  return static_cast<i64>(ir::as_unsigned(src, a));
}
constexpr i64 sext(i64 a) noexcept { return a; }  // values are stored sign-extended
constexpr i64 trunc(Type t, i64 a) noexcept { return ir::wrap_to(t, a); }
/// Saturates at +-2^62 before the cast (double -> int64 is UB in C++ when
/// out of range), like most hardware; NaN converts to 0.
inline i64 fptosi(Type t, double v) noexcept {
  if (std::isnan(v)) return 0;
  constexpr double kLimit = 4.611686018427388e18;  // 2^62
  return ir::wrap_to(t, static_cast<i64>(std::clamp(v, -kLimit, kLimit)));
}
constexpr double sitofp(Type t, i64 a) noexcept {
  return t == Type::F32 ? static_cast<float>(a) : static_cast<double>(a);
}
constexpr double fpext(double v) noexcept { return v; }
constexpr double fptrunc(double v) noexcept { return f32(v); }

constexpr i64 gep(i64 base, i64 index, i64 stride) noexcept {
  return ir::wrap_to(Type::Ptr, base + index * stride);
}

}  // namespace pure

}  // namespace jitise::vm
