// Event-horizon cycle-skip microbenchmarks: whole-point simulations with
// the fast-forward enabled and disabled. The ON/OFF ratio is the honest
// measure of what try_skip() buys after paying its per-cycle probe cost,
// in the same Minstr/s a campaign report's host section shows. It is a
// profiling aid, not a gate: CycleSkipEquivalence pins how many cycles
// the skip advances, and wall-clock claims cite perfbench.
#include <benchmark/benchmark.h>

#include <string>

#include "cpu/cpu.hpp"
#include "sim/presets.hpp"

namespace {

using namespace prestage;

cpu::MachineConfig point_config(const std::string& preset, bool skip,
                                std::uint64_t instrs) {
  cpu::MachineConfig cfg =
      sim::make_config(preset, cacti::TechNode::um045, 4096);
  cfg.benchmark = "eon";
  cfg.max_instructions = instrs;
  cfg.enable_cycle_skip = skip;
  return cfg;
}

/// One smoke-grid point, fast-forward enabled (the shipping default).
void BM_RunPointSkipOn(benchmark::State& state) {
  const auto instrs = static_cast<std::uint64_t>(state.range(0));
  const cpu::MachineConfig cfg = point_config("base", true, instrs);
  for (auto _ : state) {
    cpu::Cpu cpu(cfg);
    benchmark::DoNotOptimize(cpu.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(instrs));
}
BENCHMARK(BM_RunPointSkipOn)->Arg(2000)->Arg(20000);

/// The same point ticked cycle by cycle — the A side of the equivalence
/// tests (tests/equivalence_test.cpp pins byte-identical results).
void BM_RunPointSkipOff(benchmark::State& state) {
  const auto instrs = static_cast<std::uint64_t>(state.range(0));
  const cpu::MachineConfig cfg = point_config("base", false, instrs);
  for (auto _ : state) {
    cpu::Cpu cpu(cfg);
    benchmark::DoNotOptimize(cpu.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(instrs));
}
BENCHMARK(BM_RunPointSkipOff)->Arg(2000)->Arg(20000);

/// The prestaged configuration the paper argues for; skip stays enabled.
/// Prefetching shortens idle spans, so this bounds the skip's win on a
/// busier machine.
void BM_RunPointClgpL0(benchmark::State& state) {
  const auto instrs = static_cast<std::uint64_t>(state.range(0));
  const cpu::MachineConfig cfg = point_config("clgp-l0", true, instrs);
  for (auto _ : state) {
    cpu::Cpu cpu(cfg);
    benchmark::DoNotOptimize(cpu.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(instrs));
}
BENCHMARK(BM_RunPointClgpL0)->Arg(2000)->Arg(20000);

}  // namespace

BENCHMARK_MAIN();
