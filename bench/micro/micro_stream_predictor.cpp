// Stream-predictor microbenchmarks: the decoupled front-end looks up the
// next fetch stream every cycle it has queue room and trains the table on
// every committed stream, so lookup and train latency sit on the
// per-cycle path of every preset.
#include <benchmark/benchmark.h>

#include "bpred/stream_predictor.hpp"
#include "common/rng.hpp"

namespace {

using namespace prestage;

/// Lookups over a trained working set of 512 streams (the Cpu's table
/// geometry: 1024-entry L1, 6144-entry 4-way L2).
void BM_StreamPredictorLookup(benchmark::State& state) {
  bpred::StreamPredictor sp({1024, 6144, 4});
  for (Addr s = 0; s < 512; ++s) {
    sp.train({0x10000 + s * 0x40, 12, 0x10000 + s * 0x40 + 0x30});
  }
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sp.predict(0x10000 + rng.below(512) * 0x40));
  }
}
BENCHMARK(BM_StreamPredictorLookup);

/// Training over 2048 distinct streams: steady insert/replace traffic.
void BM_StreamPredictorTrain(benchmark::State& state) {
  bpred::StreamPredictor sp({1024, 6144, 4});
  Rng rng(3);
  for (auto _ : state) {
    const Addr s = 0x10000 + rng.below(2048) * 0x40;
    sp.train({s, 10, s + 0x28});
  }
}
BENCHMARK(BM_StreamPredictorTrain);

}  // namespace

BENCHMARK_MAIN();
