// Entry points of the ASIP Specialization Process. The pipeline body
// lives in jit/pipeline.* — `specialize()` is a thin wrapper that builds a
// SpecializationPipeline, attaches the stderr TraceObserver when
// `trace_stages` is set, and runs it.
#include "jit/specializer.hpp"

#include <algorithm>
#include <cmath>

#include "ise/identify.hpp"
#include "jit/pipeline.hpp"
#include "support/rng.hpp"

namespace jitise::jit {

std::uint32_t fcm_hw_cycles(double latency_ns, const SpecializerConfig& cfg) {
  const double period_ns = 1e9 / cfg.woolcano.cpu_clock_hz;
  // A latency of e.g. 10.1 ns at a 5 ns period needs 3 full cycles; the
  // former integer-ceil-on-doubles idiom truncated this to 2.
  const auto transfer = static_cast<std::uint32_t>(
      latency_ns > 0 ? std::ceil(latency_ns / period_ns) : 1.0);
  return cfg.woolcano.fcm_overhead_cycles + std::max(1u, transfer);
}

std::uint64_t request_signature(const ir::Module& module,
                                const vm::Profile& profile) {
  support::Fnv1a h;
  const auto str = [&h](const std::string& s) {
    h.update_value<std::uint32_t>(static_cast<std::uint32_t>(s.size()));
    h.update(s.data(), s.size());
  };
  str(module.name);
  h.update_value<std::uint32_t>(
      static_cast<std::uint32_t>(module.functions.size()));
  for (const ir::Function& fn : module.functions) {
    str(fn.name);
    h.update_value<std::uint8_t>(static_cast<std::uint8_t>(fn.ret_type));
    h.update_value<std::uint32_t>(static_cast<std::uint32_t>(fn.params.size()));
    for (ir::Type t : fn.params)
      h.update_value<std::uint8_t>(static_cast<std::uint8_t>(t));
    h.update_value<std::uint32_t>(static_cast<std::uint32_t>(fn.values.size()));
    for (const ir::Instruction& inst : fn.values) {
      h.update_value<std::uint8_t>(static_cast<std::uint8_t>(inst.op));
      h.update_value<std::uint8_t>(static_cast<std::uint8_t>(inst.type));
      h.update_value<std::int64_t>(inst.imm);
      h.update_value<double>(inst.fimm);
      h.update_value<std::uint32_t>(inst.aux);
      h.update_value<std::uint32_t>(inst.aux2);
      h.update_value<std::uint32_t>(
          static_cast<std::uint32_t>(inst.operands.size()));
      for (ir::ValueId o : inst.operands) h.update_value<std::uint32_t>(o);
      for (ir::BlockId b : inst.phi_blocks) h.update_value<std::uint32_t>(b);
    }
    h.update_value<std::uint32_t>(static_cast<std::uint32_t>(fn.blocks.size()));
    for (const ir::BasicBlock& block : fn.blocks) {
      str(block.name);
      h.update_value<std::uint32_t>(
          static_cast<std::uint32_t>(block.instrs.size()));
      for (ir::ValueId v : block.instrs) h.update_value<std::uint32_t>(v);
    }
  }
  h.update_value<std::uint32_t>(
      static_cast<std::uint32_t>(module.globals.size()));
  for (const ir::Global& g : module.globals) {
    str(g.name);
    h.update_value<std::uint32_t>(g.size_bytes);
    h.update_value<std::uint32_t>(static_cast<std::uint32_t>(g.init.size()));
    if (!g.init.empty()) h.update(g.init.data(), g.init.size());
  }
  h.update_value<std::uint64_t>(profile.dyn_instructions);
  h.update_value<std::uint64_t>(profile.cpu_cycles);
  h.update_value<std::uint32_t>(
      static_cast<std::uint32_t>(profile.block_counts.size()));
  for (const auto& counts : profile.block_counts) {
    h.update_value<std::uint32_t>(static_cast<std::uint32_t>(counts.size()));
    for (std::uint64_t c : counts) h.update_value<std::uint64_t>(c);
  }
  for (std::uint64_t c : profile.opcode_counts)
    h.update_value<std::uint64_t>(c);
  return h.digest();
}

SpecializationResult specialize(const ir::Module& module,
                                const vm::Profile& profile,
                                const SpecializerConfig& config,
                                BitstreamCache* cache,
                                estimation::EstimateCache* estimates) {
  SpecializationPipeline pipeline(config, cache, estimates);
  TraceObserver trace;
  if (config.trace_stages) pipeline.add_observer(&trace);
  return pipeline.run(module, profile);
}

UpperBound asip_upper_bound(const ir::Module& module,
                            const vm::Profile& profile,
                            const vm::CostModel& cpu,
                            const estimation::FcmTiming& fcm) {
  UpperBound ub;
  ub.base_cycles = profile.cpu_cycles;
  hwlib::CircuitDb db;

  for (std::size_t f = 0; f < module.functions.size(); ++f) {
    const ir::Function& fn = module.functions[f];
    for (ir::BlockId b = 0; b < fn.blocks.size(); ++b) {
      const std::uint64_t count = profile.block_counts[f][b];
      if (count == 0) continue;
      const dfg::BlockDfg graph(fn, b);
      if (graph.feasible_count() < 2) continue;
      for (ise::Candidate& cand : ise::find_max_misos(graph)) {
        cand.function = static_cast<ir::FuncId>(f);
        if (!cand.single_output()) continue;
        const auto est =
            estimation::estimate_candidate(graph, cand, db, cpu, fcm);
        if (est.saved_per_exec <= 0.0) continue;
        ++ub.candidates;
        ub.saved_cycles += est.saved_per_exec * static_cast<double>(count);
      }
    }
  }
  return ub;
}

}  // namespace jitise::jit
