// The shadow machine: the units of a cpu::Cpu assembled from the same
// public constructors Cpu::Cpu uses, ticked in Cpu::tick's order (with
// recovery handled as Cpu::do_recovery does, and without the
// event-horizon skip), timing every per-cycle call.
//
// Cpu keeps its units private, so this is the only way to split kernel
// time by unit from outside the simulator. The split is trusted only
// when the shadow reproduces Cpu::run exactly; matches() is that check.
#pragma once

#include <cstdint>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "cpu/config.hpp"
#include "cpu/cpu.hpp"

namespace perfbench {

/// Host seconds spent in each unit's per-cycle calls.
struct UnitSeconds {
  double backend = 0.0;   ///< begin_cycle, recovery_due, commit/issue/dispatch
  double driver = 0.0;    ///< FrontendDriver::tick (predictor + oracle)
  double fetch = 0.0;     ///< FetchEngine::tick
  double prefetch = 0.0;  ///< IPrefetcher::tick
  double mem = 0.0;       ///< MemSystem::tick
  double recovery = 0.0;  ///< the do_recovery sequence
  double timers = 0.0;    ///< timer reads taken back out of the units
  double total = 0.0;     ///< the whole tick loop, timer reads included

  UnitSeconds& operator+=(const UnitSeconds& o);
};

/// What one shadow run produced: the statistics matches() compares, the
/// unit counters Cpu does not expose, and the unit times.
struct ShadowRun {
  prestage::Cycle cycles = 0;
  std::uint64_t committed = 0;
  prestage::SourceBreakdown fetch_sources;
  prestage::SourceBreakdown prefetch_sources;
  std::uint64_t lines_fetched = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t l2_misses = 0;
  std::uint64_t mem_merges = 0;
  std::uint64_t bus_busy_cycles = 0;
  UnitSeconds seconds;
};

/// Simulates @p cfg on the shadow machine. Requires a full run
/// (cfg.warmup_instructions == 0: the campaign path never sets it);
/// throws prestage::SimError otherwise or if the machine wedges.
[[nodiscard]] ShadowRun run_shadow(const prestage::cpu::MachineConfig& cfg);

/// True when @p shadow reproduced @p real: cycles, committed
/// instructions, fetch- and prefetch-source counts, lines fetched,
/// recoveries and L2 hits/misses all equal.
[[nodiscard]] bool matches(const ShadowRun& shadow,
                           const prestage::cpu::RunResult& real);

}  // namespace perfbench
