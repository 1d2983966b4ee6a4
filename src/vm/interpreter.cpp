#include "vm/interpreter.hpp"

#include <algorithm>
#include <stdexcept>

#include "vm/eval.hpp"

namespace jitise::vm {

using ir::Opcode;
using ir::Type;

namespace {

// Op kinds of the decoded form. The control kinds come first: each ends a
// segment, and Machine::exec handles them itself. Every later kind is
// straight-line and runs through Machine::step. Specialized kinds fix the
// type of a hot (opcode, type) pair; `Pure`, `Load` and `Store` cover the
// rest.
enum class Kind : std::uint8_t {
  Br,       // a: edge
  CondBr,   // a: condition; b, c: true and false edges
  Ret,      // a: value, or kNoValue
  Call,     // a: callee; b, c: operand list; imm: the segment after the call
  FellOff,  // end of a block without a terminator; never counted
  AddI32, SubI32, MulI32, AndI32, OrI32, XorI32, ShlI32, LShrI32, AShrI32,
  ICmpI32,  // imm: predicate
  FAddF64, FSubF64, FMulF64, FDivF64,
  Select,
  Gep,      // imm: stride
  LoadI32, LoadF64, Load,      // a: address
  StoreI32, StoreF64, Store,   // a: value; b: address; type: value type
  GlobalAddr,  // a: global
  Alloca,      // imm: bytes
  CustomOp,    // a: custom-instruction id; b, c: operand list
  Pure,        // a, b, c: operands; imm: index into Decoded::generic
  Unexpected,  // Param, constant or misplaced phi inside a block
};

constexpr bool ends_segment(Kind k) noexcept { return k <= Kind::FellOff; }

constexpr std::size_t kPhi = static_cast<std::size_t>(Opcode::Phi);

struct Copy {
  std::uint32_t dst, src;
};

struct Tally {
  Opcode op;
  std::uint32_t n;
};

struct GenericPure {
  PureOp spec;
  std::uint32_t arity;
};

Slot load(const Memory& m, Type t, std::uint32_t addr) {
  switch (t) {
    case Type::I1:  return Slot::of_int(m.read<std::uint8_t>(addr) & 1);
    case Type::I8:  return Slot::of_int(m.read<std::int8_t>(addr));
    case Type::I16: return Slot::of_int(m.read<std::int16_t>(addr));
    case Type::I32: return Slot::of_int(m.read<std::int32_t>(addr));
    case Type::I64: return Slot::of_int(m.read<std::int64_t>(addr));
    case Type::Ptr: return Slot::of_int(m.read<std::uint32_t>(addr));
    case Type::F32: return Slot::of_float(m.read<float>(addr));
    case Type::F64: return Slot::of_float(m.read<double>(addr));
    case Type::Void: break;
  }
  throw ExecutionError("load of void");
}

void store(Memory& m, Type vt, const Slot& val, std::uint32_t addr) {
  switch (vt) {
    case Type::I1:  m.write<std::uint8_t>(addr, val.i & 1); return;
    case Type::I8:  m.write<std::int8_t>(addr, static_cast<std::int8_t>(val.i)); return;
    case Type::I16: m.write<std::int16_t>(addr, static_cast<std::int16_t>(val.i)); return;
    case Type::I32: m.write<std::int32_t>(addr, static_cast<std::int32_t>(val.i)); return;
    case Type::I64: m.write<std::int64_t>(addr, val.i); return;
    case Type::Ptr: m.write<std::uint32_t>(addr, static_cast<std::uint32_t>(val.i)); return;
    case Type::F32: m.write<float>(addr, static_cast<float>(val.f)); return;
    case Type::F64: m.write<double>(addr, val.f); return;
    case Type::Void: break;
  }
  throw ExecutionError("store of void");
}

}  // namespace

struct Machine::Op {
  Kind kind = Kind::Unexpected;
  Opcode opcode = Opcode::Add;  // for per-instruction accounting
  Type type = Type::Void;
  std::uint32_t cycles = 0;
  std::uint32_t dst = 0;  // the instruction's own value slot
  std::uint32_t a = 0, b = 0, c = 0;
  std::int64_t imm = 0;
};

struct Machine::Segment {
  std::uint32_t steps = 0;  // instructions, including the block's phis
  std::uint32_t phis = 0;   // the leading phi group (block-entry segments)
  std::uint64_t cycles = 0;
  std::uint32_t tally_begin = 0, tally_end = 0;  // into Decoded::tallies
};

/// One CFG edge into `target`, or the function entry (edge 0).
struct Machine::Edge {
  ir::BlockId target = 0;
  std::uint32_t first_op = 0;  // the target's first op and entry segment
  std::uint32_t segment = 0;
  std::uint32_t copies_begin = 0, copies_end = 0;  // the phis' parallel copy
  bool missing_arc = false;  // a phi of `target` has no arc for this edge
};

struct Machine::Decoded {
  std::vector<Op> ops;
  std::vector<Segment> segments;
  std::vector<Tally> tallies;
  std::vector<Edge> edges;
  std::vector<Copy> copies;
  std::vector<std::uint32_t> operands;  // Call and CustomOp operand lists
  std::vector<GenericPure> generic;  // the specs of Pure ops
  std::vector<Slot> preset;  // constants; every other slot zero
  // Slots a frame occupies: the values, then scratch for staging phis and
  // gathering call and custom-op operands (a callee's frame starts there).
  std::uint32_t frame_size = 0;
};

namespace {

/// The specialized kind of a pure op, or Pure.
Kind pure_kind(const ir::Instruction& inst, Type src) {
  const std::size_t n = inst.operands.size();
  if (inst.op == Opcode::Select) return n == 3 ? Kind::Select : Kind::Pure;
  if (n != 2) return Kind::Pure;
  const bool i32 = inst.type == Type::I32, f64 = inst.type == Type::F64;
  switch (inst.op) {
    case Opcode::Gep: return Kind::Gep;
    case Opcode::ICmp: return src == Type::I32 ? Kind::ICmpI32 : Kind::Pure;
    case Opcode::Add: return i32 ? Kind::AddI32 : Kind::Pure;
    case Opcode::Sub: return i32 ? Kind::SubI32 : Kind::Pure;
    case Opcode::Mul: return i32 ? Kind::MulI32 : Kind::Pure;
    case Opcode::And: return i32 ? Kind::AndI32 : Kind::Pure;
    case Opcode::Or: return i32 ? Kind::OrI32 : Kind::Pure;
    case Opcode::Xor: return i32 ? Kind::XorI32 : Kind::Pure;
    case Opcode::Shl: return i32 ? Kind::ShlI32 : Kind::Pure;
    case Opcode::LShr: return i32 ? Kind::LShrI32 : Kind::Pure;
    case Opcode::AShr: return i32 ? Kind::AShrI32 : Kind::Pure;
    case Opcode::FAdd: return f64 ? Kind::FAddF64 : Kind::Pure;
    case Opcode::FSub: return f64 ? Kind::FSubF64 : Kind::Pure;
    case Opcode::FMul: return f64 ? Kind::FMulF64 : Kind::Pure;
    case Opcode::FDiv: return f64 ? Kind::FDivF64 : Kind::Pure;
    default: return Kind::Pure;
  }
}

}  // namespace

class Machine::Decoder {
 public:
  Decoder(const ir::Function& f, const CostModel& cost) : f_(f), cost_(cost) {}

  Decoded run() {
    d_.preset.assign(f_.values.size(), Slot{});
    for (std::size_t v = 0; v < f_.values.size(); ++v) {
      const ir::Instruction& inst = f_.values[v];
      if (inst.op == Opcode::ConstInt) d_.preset[v] = Slot::of_int(inst.imm);
      else if (inst.op == Opcode::ConstFloat) d_.preset[v] = Slot::of_float(inst.fimm);
    }
    edge(ir::kNoBlock, 0);  // the function entry
    std::vector<std::uint32_t> first_op(f_.blocks.size());
    std::vector<std::uint32_t> entry_segment(f_.blocks.size());
    for (ir::BlockId b = 0; b < f_.blocks.size(); ++b) {
      first_op[b] = static_cast<std::uint32_t>(d_.ops.size());
      entry_segment[b] = static_cast<std::uint32_t>(d_.segments.size());
      block(b);
    }
    for (Edge& e : d_.edges) {
      e.first_op = first_op[e.target];
      e.segment = entry_segment[e.target];
    }
    d_.frame_size = static_cast<std::uint32_t>(f_.values.size()) + scratch_;
    return std::move(d_);
  }

 private:
  void block(ir::BlockId b) {
    const auto& instrs = f_.blocks[b].instrs;
    std::size_t pos = 0;
    while (pos < instrs.size() && f_.values[instrs[pos]].op == Opcode::Phi) ++pos;
    scratch_ = std::max<std::uint32_t>(scratch_, static_cast<std::uint32_t>(pos));
    open_segment(static_cast<std::uint32_t>(pos));
    for (; pos < instrs.size(); ++pos) {
      const Op op = decode(b, instrs[pos]);
      seg_.steps += 1;
      seg_.cycles += op.cycles;
      ++tally_[static_cast<std::size_t>(op.opcode)];
      d_.ops.push_back(op);
      if (ir::is_terminator(op.opcode)) {
        close_segment();
        return;
      }
      if (op.kind == Kind::Call) {
        d_.ops.back().imm = static_cast<std::int64_t>(d_.segments.size() + 1);
        close_segment();
        open_segment(0);
      }
    }
    d_.ops.push_back(Op{Kind::FellOff});
    close_segment();
  }

  void open_segment(std::uint32_t phis) {
    seg_ = Segment{};
    seg_.steps = seg_.phis = phis;
    tally_.fill(0);
    tally_[kPhi] = phis;
  }

  void close_segment() {
    seg_.tally_begin = static_cast<std::uint32_t>(d_.tallies.size());
    for (std::size_t op = 0; op < tally_.size(); ++op)
      if (tally_[op] != 0)
        d_.tallies.push_back(Tally{static_cast<Opcode>(op), tally_[op]});
    seg_.tally_end = static_cast<std::uint32_t>(d_.tallies.size());
    d_.segments.push_back(seg_);
  }

  /// Adds the edge and resolves the target's phis against its source block:
  /// the first arc from that block wins, as in a linear scan.
  std::uint32_t edge(ir::BlockId from, ir::BlockId target) {
    if (target >= f_.blocks.size())
      throw ExecutionError("branch to a missing block in @" + f_.name);
    Edge& e = d_.edges.emplace_back();
    e.target = target;
    e.copies_begin = static_cast<std::uint32_t>(d_.copies.size());
    for (ir::ValueId v : f_.blocks[target].instrs) {
      const ir::Instruction& phi = f_.values[v];
      if (phi.op != Opcode::Phi) break;
      const auto arc = std::find(phi.phi_blocks.begin(), phi.phi_blocks.end(), from);
      if (arc == phi.phi_blocks.end()) {
        e.missing_arc = true;
        break;
      }
      d_.copies.push_back(Copy{v, phi.operands[arc - phi.phi_blocks.begin()]});
    }
    e.copies_end = static_cast<std::uint32_t>(d_.copies.size());
    return static_cast<std::uint32_t>(d_.edges.size() - 1);
  }

  Op decode(ir::BlockId b, ir::ValueId v) {
    const ir::Instruction& inst = f_.values[v];
    Op op{Kind::Unexpected, inst.op, inst.type, cost_.cycles(inst.op, inst.type), v};
    const std::size_t n = std::min<std::size_t>(inst.operands.size(), 3);
    std::uint32_t* const slots[] = {&op.a, &op.b, &op.c};
    for (std::size_t k = 0; k < n; ++k) *slots[k] = inst.operands[k];
    op.imm = inst.imm;
    const Type src = n > 0 ? f_.values[op.a].type : inst.type;
    const auto typed = [](Type t, Kind i32, Kind f64, Kind other) {
      return t == Type::I32 ? i32 : t == Type::F64 ? f64 : other;
    };
    switch (inst.op) {
      case Opcode::Br:
        op.kind = Kind::Br;
        op.a = edge(b, inst.aux);
        break;
      case Opcode::CondBr:
        op.kind = Kind::CondBr;
        op.b = edge(b, inst.aux);
        op.c = edge(b, inst.aux2);
        break;
      case Opcode::Ret:
        op.kind = Kind::Ret;
        if (n == 0) op.a = ir::kNoValue;
        break;
      case Opcode::Call:
      case Opcode::CustomOp:
        op.kind = inst.op == Opcode::Call ? Kind::Call : Kind::CustomOp;
        op.a = inst.aux;
        op.b = static_cast<std::uint32_t>(d_.operands.size());
        op.c = static_cast<std::uint32_t>(inst.operands.size());
        d_.operands.insert(d_.operands.end(), inst.operands.begin(), inst.operands.end());
        scratch_ = std::max(scratch_, op.c);
        break;
      case Opcode::Alloca:
        op.kind = Kind::Alloca;
        break;
      case Opcode::GlobalAddr:
        op.kind = Kind::GlobalAddr;
        op.a = inst.aux;
        break;
      case Opcode::Load:
        op.kind = typed(inst.type, Kind::LoadI32, Kind::LoadF64, Kind::Load);
        break;
      case Opcode::Store:
        op.type = src;
        op.kind = typed(src, Kind::StoreI32, Kind::StoreF64, Kind::Store);
        break;
      default:
        if (!is_pure_op(inst.op)) break;
        op.kind = pure_kind(inst, src);
        if (op.kind == Kind::ICmpI32) op.imm = inst.aux;
        if (op.kind == Kind::Pure) {
          op.imm = static_cast<std::int64_t>(d_.generic.size());
          d_.generic.push_back(
              GenericPure{PureOp{inst.op, inst.type, src, inst.aux, inst.imm},
                          static_cast<std::uint32_t>(n)});
        }
    }
    return op;
  }

  const ir::Function& f_;
  const CostModel& cost_;
  Decoded d_;
  Segment seg_;
  std::array<std::uint32_t, ir::kNumOpcodes> tally_{};
  std::uint32_t scratch_ = 0;
};

Profile Profile::diff(const Profile& earlier) const {
  if (earlier.block_counts.size() != block_counts.size())
    throw std::invalid_argument("Profile::diff: function count mismatch");
  Profile d;
  d.block_counts.resize(block_counts.size());
  for (std::size_t f = 0; f < block_counts.size(); ++f) {
    const auto& now = block_counts[f];
    const auto& then = earlier.block_counts[f];
    if (then.size() != now.size())
      throw std::invalid_argument("Profile::diff: block count mismatch");
    d.block_counts[f].resize(now.size());
    for (std::size_t b = 0; b < now.size(); ++b)
      d.block_counts[f][b] = now[b] - then[b];
  }
  d.dyn_instructions = dyn_instructions - earlier.dyn_instructions;
  d.cpu_cycles = cpu_cycles - earlier.cpu_cycles;
  for (std::size_t op = 0; op < opcode_counts.size(); ++op)
    d.opcode_counts[op] = opcode_counts[op] - earlier.opcode_counts[op];
  return d;
}

Machine::Machine(const ir::Module& module, CostModel cost,
                 std::uint32_t memory_bytes)
    : module_(module), cost_(cost), memory_(memory_bytes) {
  decoded_.resize(module_.functions.size());
  profile_.block_counts.resize(module_.functions.size());
  for (std::size_t f = 0; f < module_.functions.size(); ++f)
    profile_.block_counts[f].assign(module_.functions[f].blocks.size(), 0);
  place_globals();
}

Machine::~Machine() = default;

void Machine::reset_memory() {
  memory_ = Memory(memory_.size());
  place_globals();
}

void Machine::place_globals() {
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

RunResult Machine::run(ir::FuncId fn, std::span<const Slot> args,
                       std::uint64_t max_steps) {
  steps_left_ = max_steps;
  run_steps_ = 0;
  run_cycles_ = 0;
  if (regs_.size() < args.size()) regs_.resize(args.size());
  std::copy(args.begin(), args.end(), regs_.begin());
  RunResult result;
  result.ret = exec(fn, 0, args.size(), 0);
  result.steps = run_steps_;
  result.cycles = run_cycles_;
  if (windowing_ && window_config_.per_run) close_window();
  return result;
}

void Machine::clear_profile() noexcept {
  profile_.clear();
  if (windowing_) {
    window_base_.clear();
    if (window_config_.instructions_per_window != 0)
      window_next_ = window_config_.instructions_per_window;
  }
}

void Machine::enable_windowing(const WindowConfig& config) {
  windowing_ = true;
  window_config_ = config;
  if (window_config_.ring_capacity == 0) window_config_.ring_capacity = 1;
  window_base_ = profile_;
  window_next_ =
      window_config_.instructions_per_window != 0
          ? profile_.dyn_instructions + window_config_.instructions_per_window
          : UINT64_MAX;
}

bool Machine::close_window() {
  if (!windowing_) return false;
  Profile delta = profile_.diff(window_base_);
  window_base_ = profile_;
  if (window_config_.instructions_per_window != 0) {
    window_next_ = profile_.dyn_instructions +
                   window_config_.instructions_per_window;
  }
  if (delta.empty()) return false;
  windows_.push_back(ProfileWindow{windows_closed_++, std::move(delta)});
  while (windows_.size() > window_config_.ring_capacity) windows_.pop_front();
  return true;
}

RunResult Machine::run(std::string_view fn_name, std::span<const Slot> args,
                       std::uint64_t max_steps) {
  const auto id = module_.find_function(fn_name);
  if (id < 0)
    throw ExecutionError("no such function: " + std::string(fn_name));
  return run(static_cast<ir::FuncId>(id), args, max_steps);
}

const Machine::Decoded& Machine::decoded(ir::FuncId fn) {
  std::unique_ptr<Decoded>& d = decoded_[fn];
  if (!d)
    d = std::make_unique<Decoded>(Decoder(module_.functions[fn], cost_).run());
  return *d;
}

// Executes one straight-line op.
[[gnu::always_inline]] inline void Machine::step(const Decoded& d, const Op& op,
                                                 Slot* regs) {
  const auto i = [&](std::uint32_t s) { return regs[s].i; };
  const auto f = [&](std::uint32_t s) { return regs[s].f; };
  const auto addr = [&](std::uint32_t s) {
    return static_cast<std::uint32_t>(regs[s].i);
  };
  Slot& out = regs[op.dst];
  switch (op.kind) {
    case Kind::AddI32: out = Slot::of_int(pure::add(Type::I32, i(op.a), i(op.b))); return;
    case Kind::SubI32: out = Slot::of_int(pure::sub(Type::I32, i(op.a), i(op.b))); return;
    case Kind::MulI32: out = Slot::of_int(pure::mul(Type::I32, i(op.a), i(op.b))); return;
    case Kind::AndI32: out = Slot::of_int(pure::bit_and(Type::I32, i(op.a), i(op.b))); return;
    case Kind::OrI32: out = Slot::of_int(pure::bit_or(Type::I32, i(op.a), i(op.b))); return;
    case Kind::XorI32: out = Slot::of_int(pure::bit_xor(Type::I32, i(op.a), i(op.b))); return;
    case Kind::ShlI32: out = Slot::of_int(pure::shl(Type::I32, i(op.a), i(op.b))); return;
    case Kind::LShrI32: out = Slot::of_int(pure::lshr(Type::I32, i(op.a), i(op.b))); return;
    case Kind::AShrI32: out = Slot::of_int(pure::ashr(Type::I32, i(op.a), i(op.b))); return;
    case Kind::ICmpI32:
      out = Slot::of_int(pure::icmp(static_cast<ir::ICmpPred>(op.imm), Type::I32,
                                    i(op.a), i(op.b)) ? 1 : 0);
      return;
    case Kind::FAddF64: out = Slot::of_float(pure::fadd(Type::F64, f(op.a), f(op.b))); return;
    case Kind::FSubF64: out = Slot::of_float(pure::fsub(Type::F64, f(op.a), f(op.b))); return;
    case Kind::FMulF64: out = Slot::of_float(pure::fmul(Type::F64, f(op.a), f(op.b))); return;
    case Kind::FDivF64: out = Slot::of_float(pure::fdiv(Type::F64, f(op.a), f(op.b))); return;
    case Kind::Select: out = pure::select(i(op.a), regs[op.b], regs[op.c]); return;
    case Kind::Gep: out = Slot::of_int(pure::gep(i(op.a), i(op.b), op.imm)); return;
    case Kind::LoadI32: out = load(memory_, Type::I32, addr(op.a)); return;
    case Kind::LoadF64: out = load(memory_, Type::F64, addr(op.a)); return;
    case Kind::Load: out = load(memory_, op.type, addr(op.a)); return;
    case Kind::StoreI32: store(memory_, Type::I32, regs[op.a], addr(op.b)); out = Slot{}; return;
    case Kind::StoreF64: store(memory_, Type::F64, regs[op.a], addr(op.b)); out = Slot{}; return;
    case Kind::Store: store(memory_, op.type, regs[op.a], addr(op.b)); out = Slot{}; return;
    case Kind::GlobalAddr: out = Slot::of_int(global_addr_[op.a]); return;
    case Kind::Alloca:
      out = Slot::of_int(memory_.stack_alloc(static_cast<std::uint32_t>(op.imm)));
      return;
    case Kind::CustomOp: {
      if (!custom_)
        throw ExecutionError("custom instruction executed without a handler");
      Slot* inputs = regs + d.preset.size();
      for (std::uint32_t k = 0; k < op.c; ++k) inputs[k] = regs[d.operands[op.b + k]];
      const CustomExec ce = custom_(op.a, std::span<const Slot>(inputs, op.c));
      // The base-cost of 1 cycle was already charged; add the remainder.
      const std::uint32_t extra = ce.cycles > 0 ? ce.cycles - 1 : 0;
      run_cycles_ += extra;
      profile_.cpu_cycles += extra;
      out = ce.result;
      return;
    }
    case Kind::Pure: {
      const GenericPure& p = d.generic[static_cast<std::size_t>(op.imm)];
      const Slot ops[3] = {regs[op.a], regs[op.b], regs[op.c]};
      out = eval_pure(p.spec, std::span<const Slot>(ops, p.arity));
      return;
    }
    case Kind::Unexpected:
      throw ExecutionError(std::string("unexpected opcode ") +
                           std::string(ir::opcode_name(op.opcode)));
    default:
      return;  // control kinds run in exec()
  }
}

// Counts a whole segment up front. When the step budget runs out inside it,
// exhaust() replays it one instruction at a time instead and never returns.
[[gnu::always_inline]] inline void Machine::count(const Decoded& d,
                                                  const Segment& seg,
                                                  const Op* first, Slot* regs) {
  if (seg.steps > steps_left_ - run_steps_) exhaust(d, seg, first, regs);
  run_steps_ += seg.steps;
  profile_.dyn_instructions += seg.steps;
  run_cycles_ += seg.cycles;
  profile_.cpu_cycles += seg.cycles;
  const Tally* t = d.tallies.data() + seg.tally_begin;
  const Tally* const end = d.tallies.data() + seg.tally_end;
  for (; t != end; ++t)
    profile_.opcode_counts[static_cast<std::size_t>(t->op)] += t->n;
}

// Per-instruction accounting for the one segment in which the step budget
// runs out: the phi group, one budget check, then each op counted and
// checked before it runs. Only a segment's last op can end it, so every op
// that runs here is straight-line, and the run always ends here.
void Machine::exhaust(const Decoded& d, const Segment& seg, const Op* op,
                      Slot* regs) {
  run_steps_ += seg.phis;
  profile_.dyn_instructions += seg.phis;
  profile_.opcode_counts[kPhi] += seg.phis;
  if (run_steps_ > steps_left_) throw ExecutionError("step budget exceeded");
  for (;; ++op) {
    ++run_steps_;
    ++profile_.dyn_instructions;
    ++profile_.opcode_counts[static_cast<std::size_t>(op->opcode)];
    run_cycles_ += op->cycles;
    profile_.cpu_cycles += op->cycles;
    if (run_steps_ > steps_left_) throw ExecutionError("step budget exceeded");
    step(d, *op, regs);
  }
}

// Takes back the counts of the ops after `op` in its segment: they were
// counted when the segment was entered, but the exception stopped them.
void Machine::uncount_rest(const Op* op) noexcept {
  while (!ends_segment(op->kind)) {
    ++op;
    if (op->kind == Kind::FellOff) return;
    --run_steps_;
    --profile_.dyn_instructions;
    --profile_.opcode_counts[static_cast<std::size_t>(op->opcode)];
    run_cycles_ -= op->cycles;
    profile_.cpu_cycles -= op->cycles;
  }
}

// Enters `edge`'s target: the block count, the window tick, the phis' parallel
// copy, then the accounting of the block's first segment.
[[gnu::always_inline]] inline const Machine::Op* Machine::enter(
    const Decoded& d, const Edge& edge, ir::FuncId fn, Slot* regs,
    std::uint64_t* block_counts) {
  ++block_counts[edge.target];
  // Windowed profiling tick: one compare against a sentinel (UINT64_MAX
  // when disabled), so the non-windowed hot path pays a single branch.
  if (profile_.dyn_instructions >= window_next_) close_window();
  if (edge.missing_arc)
    throw ExecutionError("phi without arc for incoming edge in @" +
                         module_.functions[fn].name);
  const Copy* const copies = d.copies.data() + edge.copies_begin;
  const std::uint32_t n = edge.copies_end - edge.copies_begin;
  Slot* const staging = regs + d.preset.size();
  for (std::uint32_t k = 0; k < n; ++k) staging[k] = regs[copies[k].src];
  for (std::uint32_t k = 0; k < n; ++k) regs[copies[k].dst] = staging[k];
  const Op* first = d.ops.data() + edge.first_op;
  count(d, d.segments[edge.segment], first, regs);
  return first;
}

Slot Machine::exec(ir::FuncId fn, std::uint32_t base, std::size_t nargs,
                   unsigned depth) {
  if (depth > 512) throw ExecutionError("call depth limit exceeded");
  const ir::Function& f = module_.functions[fn];
  if (nargs != f.params.size())
    throw ExecutionError("arity mismatch calling @" + f.name);
  const Decoded& d = decoded(fn);
  if (regs_.size() < base + d.frame_size)
    regs_.resize(std::max<std::size_t>(base + d.frame_size, 2 * regs_.size()));
  Slot* regs = regs_.data() + base;
  // The arguments are already in place: the caller gathered them there.
  std::copy(d.preset.begin() + static_cast<std::ptrdiff_t>(nargs),
            d.preset.end(), regs + nargs);
  const std::uint32_t stack_mark = memory_.stack_mark();
  std::uint64_t* const block_counts = profile_.block_counts[fn].data();
  const auto values = static_cast<std::uint32_t>(d.preset.size());

  const Op* op = nullptr;
  try {
    op = enter(d, d.edges[0], fn, regs, block_counts);
    for (;;) {
      switch (op->kind) {
        case Kind::Br:
          op = enter(d, d.edges[op->a], fn, regs, block_counts);
          continue;
        case Kind::CondBr:
          op = enter(d, d.edges[regs[op->a].i != 0 ? op->b : op->c], fn, regs,
                     block_counts);
          continue;
        case Kind::Ret: {
          const Slot r = op->a == ir::kNoValue ? Slot{} : regs[op->a];
          memory_.stack_release(stack_mark);
          return r;
        }
        case Kind::Call: {
          Slot* args = regs + values;
          for (std::uint32_t k = 0; k < op->c; ++k)
            args[k] = regs[d.operands[op->b + k]];
          const Slot r = exec(op->a, base + values, op->c, depth + 1);
          regs = regs_.data() + base;
          regs[op->dst] = r;
          count(d, d.segments[static_cast<std::size_t>(op->imm)], op + 1, regs);
          ++op;
          continue;
        }
        case Kind::FellOff:
          throw ExecutionError("fell off the end of block in @" + f.name);
        default:
          step(d, *op, regs);
          ++op;
          continue;
      }
    }
  } catch (...) {
    if (op != nullptr) uncount_rest(op);
    throw;
  }
}

}  // namespace jitise::vm
