// Workload-layer microbenchmarks: what a run point pays to obtain its
// program. A Cpu takes it from the process-wide synthetic_workload
// cache, so a grid pays BM_ProgramGeneration once per (benchmark, seed)
// and BM_SyntheticWorkloadHit once per point.
#include <benchmark/benchmark.h>

#include "workload/generator.hpp"
#include "workload/profiles.hpp"
#include "workload/synthetic_spec.hpp"

namespace {

using namespace prestage;

/// One full synthesis (a fresh seed each iteration, so nothing is reused).
void BM_ProgramGeneration(benchmark::State& state) {
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload::generate_program(
        workload::profile_for("twolf"), ++seed));
  }
}
BENCHMARK(BM_ProgramGeneration);

/// The per-point lookup once the key is cached.
void BM_SyntheticWorkloadHit(benchmark::State& state) {
  (void)workload::synthetic_workload("twolf", 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload::synthetic_workload("twolf", 1));
  }
}
BENCHMARK(BM_SyntheticWorkloadHit);

}  // namespace

BENCHMARK_MAIN();
