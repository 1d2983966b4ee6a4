#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <type_traits>

#include "apps/app.hpp"
#include "ir/builder.hpp"
#include "ir/random_program.hpp"
#include "ir/verifier.hpp"
#include "jit/specializer.hpp"
#include "vm/coverage.hpp"
#include "vm/interpreter.hpp"
#include "vm/time_model.hpp"
#include "vm_reference.hpp"

namespace {

using namespace jitise::ir;
using namespace jitise::vm;
namespace apps = jitise::apps;
namespace jit = jitise::jit;

Module make_sum_module() {
  Module m;
  m.name = "sum";
  FunctionBuilder fb(m, "sum", Type::I32, {Type::I32});
  const BlockId body = fb.new_block("body");
  const BlockId exit = fb.new_block("exit");
  fb.br(body);
  fb.set_insert(body);
  const ValueId i = fb.phi(Type::I32);
  const ValueId acc = fb.phi(Type::I32);
  const ValueId inext = fb.binop(Opcode::Add, i, fb.const_int(Type::I32, 1));
  const ValueId anext = fb.binop(Opcode::Add, acc, inext);
  const ValueId done = fb.icmp(ICmpPred::Sge, inext, fb.param(0));
  fb.condbr(done, exit, body);
  fb.phi_incoming(i, fb.const_int(Type::I32, 0), fb.entry());
  fb.phi_incoming(i, inext, body);
  fb.phi_incoming(acc, fb.const_int(Type::I32, 0), fb.entry());
  fb.phi_incoming(acc, anext, body);
  fb.set_insert(exit);
  fb.ret(anext);
  fb.finish();
  return m;
}

TEST(Interpreter, SumLoop) {
  const Module m = make_sum_module();
  verify_module_or_throw(m);
  Machine machine(m);
  const Slot args[] = {Slot::of_int(100)};
  const RunResult r = machine.run("sum", args);
  EXPECT_EQ(r.ret.i, 5050);
  EXPECT_GT(r.cycles, 0u);
  // Block profile: body executed 100 times, entry and exit once.
  EXPECT_EQ(machine.profile().block_counts[0][0], 1u);
  EXPECT_EQ(machine.profile().block_counts[0][1], 100u);
  EXPECT_EQ(machine.profile().block_counts[0][2], 1u);
}

TEST(Interpreter, StepBudget) {
  const Module m = make_sum_module();
  Machine machine(m);
  const Slot args[] = {Slot::of_int(1'000'000)};
  EXPECT_THROW(machine.run("sum", args, 100), ExecutionError);
}

TEST(Interpreter, IntegerSemantics) {
  Module m;
  FunctionBuilder fb(m, "f", Type::I32, {Type::I32, Type::I32});
  const ValueId div = fb.binop(Opcode::SDiv, fb.param(0), fb.param(1));
  const ValueId rem = fb.binop(Opcode::SRem, fb.param(0), fb.param(1));
  const ValueId x = fb.binop(Opcode::Mul, div, rem);
  const ValueId sh = fb.binop(Opcode::Shl, x, fb.const_int(Type::I32, 1));
  fb.ret(sh);
  fb.finish();
  verify_module_or_throw(m);
  Machine machine(m);
  const Slot args[] = {Slot::of_int(-17), Slot::of_int(5)};
  // C semantics: -17/5 = -3, -17%5 = -2; (-3 * -2) << 1 = 12.
  EXPECT_EQ(machine.run("f", args).ret.i, 12);
  const Slot by_zero[] = {Slot::of_int(1), Slot::of_int(0)};
  EXPECT_THROW(machine.run("f", by_zero), ExecutionError);
}

TEST(Interpreter, WrapAround8Bit) {
  Module m;
  FunctionBuilder fb(m, "f", Type::I8, {Type::I8, Type::I8});
  fb.ret(fb.binop(Opcode::Add, fb.param(0), fb.param(1)));
  fb.finish();
  Machine machine(m);
  const Slot args[] = {Slot::of_int(127), Slot::of_int(1)};
  EXPECT_EQ(machine.run("f", args).ret.i, -128);
}

TEST(Interpreter, UnsignedOps) {
  Module m;
  FunctionBuilder fb(m, "f", Type::I32, {Type::I32, Type::I32});
  const ValueId q = fb.binop(Opcode::UDiv, fb.param(0), fb.param(1));
  const ValueId s = fb.binop(Opcode::LShr, fb.param(0), fb.const_int(Type::I32, 4));
  fb.ret(fb.binop(Opcode::Xor, q, s));
  fb.finish();
  Machine machine(m);
  const Slot args[] = {Slot::of_int(-16) /* 0xfffffff0 */, Slot::of_int(16)};
  const std::uint32_t expect = (0xfffffff0u / 16u) ^ (0xfffffff0u >> 4);
  EXPECT_EQ(static_cast<std::uint32_t>(machine.run("f", args).ret.i), expect);
}

TEST(Interpreter, FloatEmulation) {
  Module m;
  FunctionBuilder fb(m, "f", Type::F64, {Type::F64, Type::F64});
  const ValueId s = fb.binop(Opcode::FMul, fb.param(0), fb.param(1));
  const ValueId t = fb.binop(Opcode::FAdd, s, fb.const_float(Type::F64, 0.5));
  fb.ret(t);
  fb.finish();
  Machine machine(m);
  const Slot args[] = {Slot::of_float(3.0), Slot::of_float(4.0)};
  const RunResult r = machine.run("f", args);
  EXPECT_DOUBLE_EQ(r.ret.f, 12.5);
  // Software-emulated FP is expensive under the PPC405 cost model.
  CostModel cm;
  EXPECT_GE(r.cycles, cm.fp_mul + cm.fp_add);
}

TEST(Interpreter, MemoryAndGlobals) {
  Module m;
  add_global(m, "arr", std::vector<std::uint8_t>(40, 0));
  FunctionBuilder fb(m, "f", Type::I32, {Type::I32});
  // arr[i] = i*i for i in 0..9, then return arr[n].
  const BlockId body = fb.new_block("body");
  const BlockId done = fb.new_block("done");
  fb.br(body);
  fb.set_insert(body);
  const ValueId i = fb.phi(Type::I32);
  const ValueId base = fb.global_addr(0);
  const ValueId slot = fb.gep(base, i, 4);
  const ValueId sq = fb.binop(Opcode::Mul, i, i);
  fb.store(sq, slot);
  const ValueId inext = fb.binop(Opcode::Add, i, fb.const_int(Type::I32, 1));
  const ValueId cont = fb.icmp(ICmpPred::Slt, inext, fb.const_int(Type::I32, 10));
  fb.condbr(cont, body, done);
  fb.phi_incoming(i, fb.const_int(Type::I32, 0), fb.entry());
  fb.phi_incoming(i, inext, body);
  fb.set_insert(done);
  const ValueId nslot = fb.gep(fb.global_addr(0), fb.param(0), 4);
  fb.ret(fb.load(Type::I32, nslot));
  fb.finish();
  verify_module_or_throw(m);

  Machine machine(m);
  const Slot args[] = {Slot::of_int(7)};
  EXPECT_EQ(machine.run("f", args).ret.i, 49);
}

TEST(Interpreter, AllocaStackDiscipline) {
  Module m;
  // callee: writes to its own alloca, returns value read back.
  FunctionBuilder callee(m, "callee", Type::I32, {Type::I32});
  const ValueId buf = callee.alloca_bytes(16);
  callee.store(callee.param(0), buf);
  callee.ret(callee.load(Type::I32, buf));
  const FuncId callee_id = callee.finish();

  FunctionBuilder caller(m, "caller", Type::I32, {});
  const ValueId a = caller.call(callee_id, Type::I32, {caller.const_int(Type::I32, 11)});
  const ValueId b = caller.call(callee_id, Type::I32, {caller.const_int(Type::I32, 31)});
  caller.ret(caller.binop(Opcode::Add, a, b));
  caller.finish();
  verify_module_or_throw(m);

  Machine machine(m);
  EXPECT_EQ(machine.run("caller", {}).ret.i, 42);
}

TEST(Interpreter, CustomOpHandler) {
  Module m;
  FunctionBuilder fb(m, "f", Type::I32, {Type::I32, Type::I32});
  Instruction ci;
  // Build the custom op through the raw interface (as the rewriter does).
  FunctionBuilder fb2(m, "unused", Type::Void, {});
  fb2.ret();
  fb2.finish();
  const ValueId x = fb.binop(Opcode::Add, fb.param(0), fb.param(1));
  fb.ret(x);
  const FuncId f = fb.finish();
  // Splice: replace add with custom #7.
  Function& fn = m.functions[f];
  for (auto& inst : fn.values)
    if (inst.op == Opcode::Add) {
      inst.op = Opcode::CustomOp;
      inst.aux = 7;
    }

  Machine machine(m);
  machine.set_custom_handler([](std::uint32_t id, std::span<const Slot> in) {
    EXPECT_EQ(id, 7u);
    return CustomExec{Slot::of_int(in[0].i * 100 + in[1].i), 2};
  });
  const Slot args[] = {Slot::of_int(3), Slot::of_int(4)};
  EXPECT_EQ(machine.run("f", args).ret.i, 304);

  machine.set_custom_handler({});
  EXPECT_THROW(machine.run("f", args), ExecutionError);
}

TEST(Interpreter, ResetMemoryGivesAFreshImage) {
  Module m;
  add_global(m, "g", std::vector<std::uint8_t>{1, 2, 3, 4});
  FunctionBuilder fb(m, "f", Type::I32, {});
  fb.ret(fb.const_int(Type::I32, 0));
  fb.finish();
  Machine machine(m);
  Memory& mem = machine.memory();
  const std::uint32_t g = machine.global_address(0);
  const std::uint32_t top = mem.size() - 8;
  EXPECT_EQ(mem.read<std::uint8_t>(g + 3), 4);
  EXPECT_EQ(mem.read<std::uint64_t>(top), 0u);
  mem.write<std::uint8_t>(g + 3, 9);
  mem.write<std::uint64_t>(top, 9);
  machine.reset_memory();
  EXPECT_EQ(machine.global_address(0), g);
  EXPECT_EQ(machine.memory().read<std::uint8_t>(g + 3), 4);
  EXPECT_EQ(machine.memory().read<std::uint64_t>(top), 0u);

  static_assert(!std::is_copy_constructible_v<Memory>);
  Memory a(1u << 16);
  a.write<std::uint32_t>(64, 42);
  const Memory b = std::move(a);
  EXPECT_EQ(b.size(), 1u << 16);
  EXPECT_EQ(b.read<std::uint32_t>(64), 42u);
  EXPECT_THROW((void)b.read<std::uint32_t>((1u << 16) - 2), MemoryFault);
}

TEST(Coverage, ClassifiesLiveConstDead) {
  const Module m = make_sum_module();
  Machine machine(m);
  const Slot a1[] = {Slot::of_int(10)};
  machine.run("sum", a1);
  Profile p1 = machine.profile();
  machine.clear_profile();
  const Slot a2[] = {Slot::of_int(20)};
  machine.run("sum", a2);
  Profile p2 = machine.profile();

  const Profile profiles[] = {p1, p2};
  const CoverageReport cov = classify_coverage(m, profiles);
  // entry and exit run once regardless of input -> const; body varies -> live.
  EXPECT_EQ(cov.classes[0][0], CoverageClass::Const);
  EXPECT_EQ(cov.classes[0][1], CoverageClass::Live);
  EXPECT_EQ(cov.classes[0][2], CoverageClass::Const);
  EXPECT_NEAR(cov.live_pct + cov.dead_pct + cov.const_pct, 100.0, 1e-9);
}

TEST(Coverage, KernelFindsHotLoop) {
  const Module m = make_sum_module();
  Machine machine(m);
  const Slot args[] = {Slot::of_int(1000)};
  machine.run("sum", args);
  const KernelReport kernel =
      find_kernel(m, machine.profile(), machine.cost_model());
  ASSERT_FALSE(kernel.blocks.empty());
  EXPECT_EQ(kernel.blocks[0].block, 1u);  // the loop body
  EXPECT_GE(kernel.freq_pct, 90.0);
  EXPECT_GT(kernel.size_pct, 0.0);
}

TEST(TimeModel, HotCodeHasLowOverhead) {
  const Module m = make_sum_module();
  Machine machine(m);
  const Slot args[] = {Slot::of_int(100000)};
  machine.run("sum", args);
  const ExecTimes t =
      model_exec_times(m, machine.profile(), machine.cost_model());
  EXPECT_GT(t.native_seconds, 0.0);
  // Nearly everything is hot: ratio must be close to 1 (within +-7 %).
  EXPECT_NEAR(t.ratio(), 1.0, 0.07);
}

TEST(TimeModel, ColdCodePaysInterpretation) {
  // A program that executes many blocks exactly once: all cold.
  Module m;
  m.name = "coldy";
  FunctionBuilder fb(m, "f", Type::I32, {Type::I32});
  ValueId acc = fb.param(0);
  std::vector<BlockId> chain;
  for (int i = 0; i < 32; ++i) chain.push_back(fb.new_block("c" + std::to_string(i)));
  fb.br(chain[0]);
  for (int i = 0; i < 32; ++i) {
    fb.set_insert(chain[i]);
    acc = fb.binop(Opcode::Add, acc, fb.const_int(Type::I32, i));
    if (i + 1 < 32) fb.br(chain[i + 1]);
  }
  fb.ret(acc);
  fb.finish();
  Machine machine(m);
  const Slot args[] = {Slot::of_int(1)};
  machine.run("f", args);
  const ExecTimes t =
      model_exec_times(m, machine.profile(), machine.cost_model());
  EXPECT_GT(t.ratio(), 5.0);  // interpreter-dominated
}

// A module with two independent hot loops ("pa" and "pb") whose hot sets are
// disjoint — running one and then the other is a two-phase workload.
Module make_two_phase_module() {
  Module m;
  m.name = "phases";
  for (const char* name : {"pa", "pb"}) {
    FunctionBuilder fb(m, name, Type::I32, {Type::I32});
    const BlockId body = fb.new_block("body");
    const BlockId exit = fb.new_block("exit");
    fb.br(body);
    fb.set_insert(body);
    const ValueId i = fb.phi(Type::I32);
    const ValueId acc = fb.phi(Type::I32);
    const ValueId inext = fb.binop(Opcode::Add, i, fb.const_int(Type::I32, 1));
    // Distinct arithmetic per function, so the loops are not structurally
    // identical blocks.
    ValueId work;
    if (std::string(name) == "pa") {
      work = fb.binop(Opcode::Xor, acc,
                      fb.binop(Opcode::Shl, inext, fb.const_int(Type::I32, 1)));
    } else {
      work = fb.binop(Opcode::Add, acc,
                      fb.binop(Opcode::Mul, inext, fb.const_int(Type::I32, 3)));
    }
    const ValueId done = fb.icmp(ICmpPred::Sge, inext, fb.param(0));
    fb.condbr(done, exit, body);
    fb.phi_incoming(i, fb.const_int(Type::I32, 0), fb.entry());
    fb.phi_incoming(i, inext, body);
    fb.phi_incoming(acc, fb.const_int(Type::I32, 0), fb.entry());
    fb.phi_incoming(acc, work, body);
    fb.set_insert(exit);
    fb.ret(work);
    fb.finish();
  }
  return m;
}

TEST(Profile, SnapshotAndDiff) {
  const Module m = make_sum_module();
  Machine machine(m);
  const Slot args[] = {Slot::of_int(100)};
  machine.run("sum", args);
  const Profile first = machine.snapshot();
  EXPECT_FALSE(first.empty());
  // snapshot() must not disturb accumulation.
  EXPECT_EQ(machine.profile().dyn_instructions, first.dyn_instructions);

  machine.run("sum", args);
  const Profile delta = machine.profile().diff(first);
  // Two identical runs: the delta is exactly one run's activity.
  EXPECT_EQ(delta.dyn_instructions, first.dyn_instructions);
  EXPECT_EQ(delta.cpu_cycles, first.cpu_cycles);
  ASSERT_EQ(delta.block_counts.size(), first.block_counts.size());
  for (std::size_t f = 0; f < delta.block_counts.size(); ++f)
    for (std::size_t b = 0; b < delta.block_counts[f].size(); ++b)
      EXPECT_EQ(delta.block_counts[f][b], first.block_counts[f][b]);

  // Diffing a snapshot of itself is empty.
  EXPECT_TRUE(machine.profile().diff(machine.snapshot()).empty());

  // Shape mismatch (different module) throws.
  Profile other;
  other.block_counts.assign(1, std::vector<std::uint64_t>(2, 0));
  EXPECT_THROW((void)machine.profile().diff(other), std::invalid_argument);
}

TEST(Windowing, PerRunWindowsPartitionTheProfile) {
  const Module m = make_sum_module();
  Machine machine(m);
  WindowConfig wc;
  wc.per_run = true;
  machine.enable_windowing(wc);
  EXPECT_TRUE(machine.windowing());

  const Slot a[] = {Slot::of_int(50)};
  const Slot b[] = {Slot::of_int(200)};
  machine.run("sum", a);
  machine.run("sum", b);
  ASSERT_EQ(machine.windows().size(), 2u);
  EXPECT_EQ(machine.windows()[0].index, 0u);
  EXPECT_EQ(machine.windows()[1].index, 1u);
  // Windows partition the accumulated profile.
  const std::uint64_t sum = machine.windows()[0].delta.dyn_instructions +
                            machine.windows()[1].delta.dyn_instructions;
  EXPECT_EQ(sum, machine.profile().dyn_instructions);
  EXPECT_GT(machine.windows()[1].delta.dyn_instructions,
            machine.windows()[0].delta.dyn_instructions);

  // An immediately re-closed window is empty and dropped (but not counted).
  EXPECT_FALSE(machine.close_window());
  EXPECT_EQ(machine.windows_closed(), 2u);
}

TEST(Windowing, RingCapacityBoundsRetention) {
  const Module m = make_sum_module();
  Machine machine(m);
  WindowConfig wc;
  wc.per_run = true;
  wc.ring_capacity = 2;
  machine.enable_windowing(wc);
  const Slot args[] = {Slot::of_int(10)};
  for (int i = 0; i < 5; ++i) machine.run("sum", args);
  EXPECT_EQ(machine.windows().size(), 2u);
  EXPECT_EQ(machine.windows_closed(), 5u);
  EXPECT_EQ(machine.windows().front().index, 3u);
  EXPECT_EQ(machine.windows().back().index, 4u);
}

TEST(Windowing, ClearProfileReanchors) {
  const Module m = make_sum_module();
  Machine machine(m);
  machine.enable_windowing({});
  const Slot args[] = {Slot::of_int(30)};
  machine.run("sum", args);
  machine.clear_profile();
  EXPECT_TRUE(machine.profile().empty());
  // The next window is the activity after the clear, not a bogus diff
  // against pre-clear state.
  machine.run("sum", args);
  EXPECT_EQ(machine.windows().back().delta.dyn_instructions,
            machine.profile().dyn_instructions);
}

TEST(Windowing, PerWindowKernelTracksThePhase) {
  const Module m = make_two_phase_module();
  verify_module_or_throw(m);
  Machine machine(m);
  WindowConfig wc;
  wc.per_run = true;
  machine.enable_windowing(wc);

  const Slot args[] = {Slot::of_int(5000)};
  machine.run("pa", args);
  machine.run("pb", args);
  ASSERT_EQ(machine.windows().size(), 2u);
  const Profile& wa = machine.windows()[0].delta;
  const Profile& wb = machine.windows()[1].delta;

  // Disjoint hot sets: each window only touches its own function.
  const auto pa = static_cast<std::size_t>(m.find_function("pa"));
  const auto pb = static_cast<std::size_t>(m.find_function("pb"));
  EXPECT_GT(wa.block_counts[pa][1], 0u);
  EXPECT_EQ(wa.block_counts[pb][1], 0u);
  EXPECT_GT(wb.block_counts[pb][1], 0u);
  EXPECT_EQ(wb.block_counts[pa][1], 0u);

  // The per-window kernel lands in the window's function; the whole-run
  // kernel must cover both functions — neither window kernel equals it.
  const KernelReport ka = find_kernel(m, wa, machine.cost_model());
  const KernelReport kb = find_kernel(m, wb, machine.cost_model());
  const KernelReport kall = find_kernel(m, machine.profile(),
                                        machine.cost_model());
  ASSERT_FALSE(ka.blocks.empty());
  ASSERT_FALSE(kb.blocks.empty());
  for (const auto& blk : ka.blocks) EXPECT_EQ(blk.function, pa);
  for (const auto& blk : kb.blocks) EXPECT_EQ(blk.function, pb);
  bool whole_has_pa = false, whole_has_pb = false;
  for (const auto& blk : kall.blocks) {
    whole_has_pa |= blk.function == pa;
    whole_has_pb |= blk.function == pb;
  }
  EXPECT_TRUE(whole_has_pa);
  EXPECT_TRUE(whole_has_pb);
  EXPECT_NE(kall.blocks.size(), ka.blocks.size());
}

TEST(Windowing, CoverageOverPhaseWindows) {
  const Module m = make_two_phase_module();
  Machine machine(m);
  machine.enable_windowing({});
  const Slot args[] = {Slot::of_int(2000)};
  machine.run("pa", args);
  machine.run("pb", args);
  ASSERT_EQ(machine.windows().size(), 2u);

  // Treating the phase windows as the >= 2 input sets of the coverage
  // classifier: each function's loop body runs in one window and not the
  // other, so it classifies live (input-dependent), not const or dead.
  const std::vector<Profile> sets = {machine.windows()[0].delta,
                                     machine.windows()[1].delta};
  const CoverageReport cov = classify_coverage(m, sets);
  const auto pa = static_cast<std::size_t>(m.find_function("pa"));
  const auto pb = static_cast<std::size_t>(m.find_function("pb"));
  EXPECT_EQ(cov.classes[pa][1], CoverageClass::Live);
  EXPECT_EQ(cov.classes[pb][1], CoverageClass::Live);
  EXPECT_GT(cov.live_pct, 0.0);
}

// --- The decoded interpreter against the per-instruction reference --------

/// Everything one run shows: its result or its exception, then the profile
/// and the window stream.
struct Observed {
  std::string error;
  RunResult result;
  Profile profile;
  std::deque<ProfileWindow> windows;
  std::uint64_t windows_closed = 0;
};

template <typename M>
Observed observe(M& machine, FuncId fn, std::span<const Slot> args,
                 std::uint64_t budget) {
  Observed o;
  try {
    o.result = machine.run(fn, args, budget);
  } catch (const MemoryFault& e) {
    o.error = std::string("MemoryFault: ") + e.what();
  } catch (const ExecutionError& e) {
    o.error = std::string("ExecutionError: ") + e.what();
  }
  o.profile = machine.profile();
  o.windows = machine.windows();
  o.windows_closed = machine.windows_closed();
  return o;
}

bool same_profile(const Profile& a, const Profile& b) {
  return a.block_counts == b.block_counts &&
         a.dyn_instructions == b.dyn_instructions &&
         a.cpu_cycles == b.cpu_cycles && a.opcode_counts == b.opcode_counts;
}

/// The first difference between two observations, or "".
std::string difference(const Observed& got, const Observed& want) {
  if (got.error != want.error)
    return "error '" + got.error + "' vs '" + want.error + "'";
  if (got.result.ret.i != want.result.ret.i ||
      std::memcmp(&got.result.ret.f, &want.result.ret.f, sizeof(double)) != 0)
    return "return value";
  if (got.result.steps != want.result.steps) return "steps";
  if (got.result.cycles != want.result.cycles) return "cycles";
  if (!same_profile(got.profile, want.profile)) return "profile";
  if (got.windows_closed != want.windows_closed) return "windows closed";
  if (got.windows.size() != want.windows.size()) return "windows retained";
  for (std::size_t w = 0; w < got.windows.size(); ++w)
    if (got.windows[w].index != want.windows[w].index ||
        !same_profile(got.windows[w].delta, want.windows[w].delta))
      return "window " + std::to_string(got.windows[w].index);
  return "";
}

struct Case {
  std::string name;
  const Module* module = nullptr;
  FuncId fn = 0;
  std::vector<Slot> args;
  std::uint64_t budget = 1ull << 32;
  CustomOpHandler handler{};
  bool traps = false;  // the run is expected to throw
};

/// Per-run windows, with room to retain every window a case closes.
WindowConfig run_windows() {
  WindowConfig wc;
  wc.ring_capacity = 256;
  return wc;
}

/// Runs `c` on a decoded and a reference machine. A run that throws runs
/// once more on the same two machines: the rerun starts from whatever the
/// trap left behind, such as an alloca stack it never released. Returns the
/// first difference, or "".
std::string compare(const Case& c) {
  Machine decoded(*c.module);
  reference::Machine ref(*c.module);
  decoded.set_custom_handler(c.handler);
  ref.set_custom_handler(c.handler);
  decoded.enable_windowing(run_windows());
  ref.enable_windowing(run_windows());
  const Observed got = observe(decoded, c.fn, c.args, c.budget);
  std::string diff = difference(got, observe(ref, c.fn, c.args, c.budget));
  if (diff.empty() && got.error.empty() == c.traps)
    diff = c.traps ? "no trap" : "unexpected trap: " + got.error;
  if (!diff.empty()) return c.name + ": " + diff;
  if (!c.traps) return "";
  diff = difference(observe(decoded, c.fn, c.args, c.budget),
                    observe(ref, c.fn, c.args, c.budget));
  return diff.empty() ? "" : c.name + " (rerun): " + diff;
}

FuncId function_id(const Module& m, std::string_view name) {
  return static_cast<FuncId>(m.find_function(name));
}

std::uint64_t run_length(const Case& c) {
  Machine probe(*c.module);
  probe.set_custom_handler(c.handler);
  return probe.run(c.fn, c.args).steps;
}

/// Data set `ds` of `app`.
Case dataset_case(const apps::App& app, std::size_t ds) {
  return Case{app.name + "/" + app.datasets[ds].name, &app.module,
              function_id(app.module, app.entry), app.datasets[ds].args};
}

/// `app` rewritten with the custom instructions of its train-set profile,
/// run through the CiRegistry handler.
Case rewritten_case(std::deque<jit::SpecializationResult>& specialized,
                    const apps::App& app) {
  Machine profiler(app.module);
  profiler.run(app.entry, app.datasets[0].args);
  jit::SpecializerConfig config;
  config.jobs = 1;
  const auto& spec = specialized.emplace_back(
      jit::specialize(app.module, profiler.profile(), config));
  EXPECT_FALSE(spec.registry.all().empty()) << app.name;
  Case c{app.name + " rewritten", &spec.rewritten,
         function_id(spec.rewritten, app.entry), app.datasets[0].args};
  c.handler = spec.registry.handler();
  return c;
}

/// A random program.
Case random_case(std::deque<Module>& modules, std::uint64_t seed) {
  RandomProgramConfig config;
  config.seed = seed;
  config.num_functions = 1 + seed % 3;
  config.blocks_per_function = 6 + seed % 9;
  config.ops_per_block = 6 + seed % 6;
  const Module& m = modules.emplace_back(generate_random_program(config));
  return Case{"random seed " + std::to_string(seed), &m, function_id(m, "main"),
              {Slot::of_int(static_cast<std::int64_t>(seed * 37 % 101) - 20)}};
}

/// Adds `c` at `budget`; the run traps when it is longer than the budget.
void add_budget(std::vector<Case>& cases, Case c, std::uint64_t budget,
                std::uint64_t length) {
  c.name += " budget " + std::to_string(budget);
  c.budget = budget;
  c.traps = length > budget;
  cases.push_back(std::move(c));
}

/// Adds `c` at full budget and at budgets that run out at the start, in the
/// middle and at the last instruction of the run. A run that runs out of
/// budget closes no window, so the budget variants check the profile a trap
/// leaves.
void add_budgets(std::vector<Case>& cases, const Case& c) {
  const std::uint64_t steps = run_length(c);
  cases.push_back(c);
  for (std::uint64_t budget :
       {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3}, std::uint64_t{7},
        steps / 3, steps / 2 + 1, steps - 1})
    add_budget(cases, c, budget, steps);
}

/// Hand-built modules whose @main traps, by what traps.
std::vector<std::pair<std::string, Module>> trap_modules() {
  std::vector<std::pair<std::string, Module>> out;
  const auto add_arith_tail = [](FunctionBuilder& fb, ValueId v) {
    const ValueId a = fb.binop(Opcode::Add, v, fb.const_int(Type::I32, 1));
    return fb.binop(Opcode::Mul, a, fb.const_int(Type::I32, 3));
  };
  {  // sdiv by zero in a callee, with work after it on both sides of the call
    Module m;
    FunctionBuilder callee(m, "divide", Type::I32, {Type::I32, Type::I32});
    callee.ret(add_arith_tail(
        callee, callee.binop(Opcode::SDiv, callee.param(0), callee.param(1))));
    const FuncId div = callee.finish();
    FunctionBuilder fb(m, "main", Type::I32, {});
    const ValueId q = fb.call(div, Type::I32, {fb.const_int(Type::I32, 7),
                                               fb.const_int(Type::I32, 0)});
    fb.ret(add_arith_tail(fb, q));
    fb.finish();
    out.emplace_back("sdiv by zero", std::move(m));
  }
  {  // a load past the end of memory after an alloca
    Module m;
    FunctionBuilder fb(m, "main", Type::I32, {});
    const ValueId buf = fb.alloca_bytes(64);
    fb.store(fb.const_int(Type::I32, 5), buf);
    const ValueId far = fb.gep(buf, fb.const_int(Type::I32, 1 << 28), 4);
    fb.ret(add_arith_tail(fb, fb.load(Type::I32, far)));
    fb.finish();
    out.emplace_back("out-of-range load", std::move(m));
  }
  {  // a phi with no arc for the edge it is entered by
    Module m;
    FunctionBuilder fb(m, "main", Type::I32, {});
    const BlockId mid = fb.new_block("mid");
    const BlockId join = fb.new_block("join");
    fb.br(mid);
    fb.set_insert(mid);
    fb.br(join);
    fb.set_insert(join);
    const ValueId p = fb.phi(Type::I32);
    fb.phi_incoming(p, fb.const_int(Type::I32, 1), fb.entry());
    fb.ret(add_arith_tail(fb, p));
    fb.finish();
    out.emplace_back("missing phi arc", std::move(m));
  }
  {  // a block without a terminator
    Module m;
    FunctionBuilder fb(m, "main", Type::I32, {});
    const BlockId open = fb.new_block("open");
    fb.br(open);
    fb.set_insert(open);
    add_arith_tail(fb, fb.const_int(Type::I32, 4));
    fb.finish();
    out.emplace_back("unterminated block", std::move(m));
  }
  {  // a phi after a non-phi instruction
    Module m;
    FunctionBuilder fb(m, "main", Type::I32, {});
    const BlockId body = fb.new_block("body");
    fb.br(body);
    fb.set_insert(body);
    const ValueId p = fb.phi(Type::I32);
    fb.phi_incoming(p, fb.const_int(Type::I32, 2), fb.entry());
    fb.ret(add_arith_tail(fb, p));
    const FuncId f = fb.finish();
    // The builder keeps phis at the block front: move this one behind the add.
    auto& instrs = m.functions[f].blocks[body].instrs;
    std::swap(instrs[0], instrs[1]);
    out.emplace_back("phi after a non-phi", std::move(m));
  }
  {  // unbounded recursion: the call depth limit
    Module m;
    FunctionBuilder fb(m, "main", Type::I32, {Type::I32});
    const ValueId next = fb.binop(Opcode::Add, fb.param(0), fb.const_int(Type::I32, 1));
    const ValueId r = fb.call(0, Type::I32, {next});
    fb.ret(add_arith_tail(fb, r));
    fb.finish();
    out.emplace_back("call depth", std::move(m));
  }
  return out;
}

TEST(VmDecoded, MatchesReference) {
  std::deque<Module> modules;  // stable addresses for the cases
  std::vector<Case> cases;

  // Every app's train set; every data set of the four embedded apps.
  std::deque<apps::App> suite;
  for (const std::string& name : apps::app_names()) {
    const apps::App& app = suite.emplace_back(apps::build_app(name));
    add_budgets(cases, dataset_case(app, 0));
    if (app.domain != apps::Domain::Embedded) continue;
    for (std::size_t ds = 1; ds < app.datasets.size(); ++ds)
      cases.push_back(dataset_case(app, ds));
  }

  // The embedded apps rewritten with their custom instructions.
  std::deque<jit::SpecializationResult> specialized;
  for (const apps::App& app : suite)
    if (app.domain == apps::Domain::Embedded)
      cases.push_back(rewritten_case(specialized, app));

  // Random programs.
  for (std::uint64_t seed = 1; seed <= 60; ++seed)
    add_budgets(cases, random_case(modules, seed));

  // Every budget of a phi loop, so the budget runs out inside a phi group.
  const Module& sum = modules.emplace_back(make_sum_module());
  const Case loop{"sum", &sum, 0, {Slot::of_int(9)}};
  const std::uint64_t loop_steps = run_length(loop);
  for (std::uint64_t budget = 1; budget <= loop_steps; ++budget)
    add_budget(cases, loop, budget, loop_steps);

  // Traps, at full budget and with budgets that end before the trap.
  for (auto& [what, module] : trap_modules()) {
    const Module& m = modules.emplace_back(std::move(module));
    for (std::uint64_t budget :
         {std::uint64_t{2}, std::uint64_t{5}, std::uint64_t{1} << 32}) {
      Case c{what + " budget " + std::to_string(budget), &m,
             function_id(m, "main"), {}};
      if (m.functions[c.fn].params.size() == 1) c.args = {Slot::of_int(0)};
      c.budget = budget;
      c.traps = true;
      cases.push_back(c);
    }
  }

  for (const Case& c : cases) EXPECT_EQ(compare(c), "");
}

/// Runs `c` twice on one decoded and one reference machine, then once more
/// after clear_profile() on both: one long-lived machine accumulating across
/// runs, as the drift loop drives it. After every run it compares the run,
/// the profile, the windows and the profile's change since the previous
/// snapshot (or since the clear). Returns the first difference, or "".
std::string compare_repeated(const Case& c) {
  Machine decoded(*c.module);
  reference::Machine ref(*c.module);
  decoded.set_custom_handler(c.handler);
  ref.set_custom_handler(c.handler);
  decoded.enable_windowing(run_windows());
  ref.enable_windowing(run_windows());
  Profile got_before = decoded.snapshot(), want_before = ref.snapshot();
  for (int run = 1; run <= 3; ++run) {
    if (run == 3) {
      decoded.clear_profile();
      ref.clear_profile();
      got_before = decoded.snapshot();
      want_before = ref.snapshot();
    }
    const Observed got = observe(decoded, c.fn, c.args, c.budget);
    std::string diff = difference(got, observe(ref, c.fn, c.args, c.budget));
    if (diff.empty() && !got.error.empty()) diff = "unexpected trap: " + got.error;
    const Profile got_now = decoded.snapshot(), want_now = ref.snapshot();
    if (diff.empty() &&
        !same_profile(got_now.diff(got_before), want_now.diff(want_before)))
      diff = "snapshot diff";
    if (!diff.empty()) return c.name + " run " + std::to_string(run) + ": " + diff;
    got_before = got_now;
    want_before = want_now;
  }
  return "";
}

TEST(VmDecoded, RepeatedRunsMatchReference) {
  std::deque<Module> modules;
  std::vector<Case> cases;

  // Every data set of the four embedded apps, and each app rewritten.
  std::deque<apps::App> embedded;
  std::deque<jit::SpecializationResult> specialized;
  for (const std::string& name : apps::app_names()) {
    apps::App app = apps::build_app(name);
    if (app.domain != apps::Domain::Embedded) continue;
    const apps::App& kept = embedded.emplace_back(std::move(app));
    for (std::size_t ds = 0; ds < kept.datasets.size(); ++ds)
      cases.push_back(dataset_case(kept, ds));
    cases.push_back(rewritten_case(specialized, kept));
  }
  ASSERT_EQ(embedded.size(), 4u);

  for (std::uint64_t seed = 1; seed <= 60; ++seed)
    cases.push_back(random_case(modules, seed));

  for (const Case& c : cases) EXPECT_EQ(compare_repeated(c), "");
}

}  // namespace
