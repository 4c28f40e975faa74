// Back-end microbenchmarks: a Backend with its MemSystem and Oracle, fed
// up to `width` correct-path instructions per cycle straight from the
// oracle, so decode, dispatch into the RUU, issue, the D-cache, commit
// and the oracle window run with no front-end in the way. There are no
// mispredictions, so no recovery and no wrong-path slots. items/sec is
// committed Minstr/s. A profiling aid, not a gate: wall-clock claims
// cite perfbench.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>

#include "cpu/backend.hpp"
#include "cpu/config.hpp"
#include "cpu/oracle.hpp"
#include "mem/memsys.hpp"
#include "sim/presets.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"

namespace {

using namespace prestage;

constexpr std::uint64_t kInstrs = 200000;

/// Commits kInstrs instructions of @p bench on the base machine's
/// back-end (4K L1, 0.045 um: the L2 latency of `steady`'s points).
void run_backend(benchmark::State& state, const std::string& bench) {
  cpu::MachineConfig cfg =
      sim::make_config("base-pipelined", cacti::TechNode::um045, 4096);
  cfg.benchmark = bench;
  const workload::Program program =
      workload::generate_program(workload::profile_for(bench), cfg.seed);
  mem::MemSystemConfig mem_cfg;
  mem_cfg.l2_latency = cpu::DerivedTimings::from(cfg).l2_latency;
  mem_cfg.mem_latency = cfg.mem_latency;
  mem_cfg.l1_line_bytes = cfg.line_bytes;

  for (auto _ : state) {
    cpu::Oracle oracle(program, cpu::oracle_trace_seed(cfg.seed));
    mem::MemSystem mem(mem_cfg);
    cpu::Backend backend(cfg, oracle, program, mem);
    Cycle now = 0;
    while (backend.committed() < kInstrs) {
      backend.begin_cycle(now);
      mem.tick(now);
      backend.tick_commit(now);
      backend.tick_issue(now);
      backend.tick_dispatch(now);
      for (std::uint32_t i = 0; i < cfg.width && backend.can_accept(); ++i) {
        frontend::FetchedInst f;
        f.pc = oracle.remainder().start;
        f.oracle_seq = oracle.seq_at_cursor();
        backend.accept(f);
        oracle.consume(1);
      }
      ++now;
    }
    benchmark::DoNotOptimize(now);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kInstrs));
}

void BM_BackendEon(benchmark::State& state) { run_backend(state, "eon"); }
BENCHMARK(BM_BackendEon)->Unit(benchmark::kMillisecond);

/// The largest program: the most distinct PCs and data sites.
void BM_BackendGcc(benchmark::State& state) { run_backend(state, "gcc"); }
BENCHMARK(BM_BackendGcc)->Unit(benchmark::kMillisecond);

/// A data set far beyond the L2: D-cache misses hold the RUU full.
void BM_BackendMcf(benchmark::State& state) { run_backend(state, "mcf"); }
BENCHMARK(BM_BackendMcf)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
