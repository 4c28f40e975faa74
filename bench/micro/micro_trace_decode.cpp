// Trace-decode microbenchmarks over the two read paths of a trace
// source. The oracle pulls records through TraceSource::fill() in
// 256-entry batches (cpu/oracle.hpp), so fill() throughput at that batch
// size is what the simulator actually sees; sampling plans read spans
// (fill_spans), which build no records. Both generator paths run the
// same block-granular walk core.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "workload/generator.hpp"
#include "workload/profiles.hpp"
#include "workload/trace.hpp"
#include "workload/trace_file.hpp"

namespace {

using namespace prestage;
using workload::DynInst;

constexpr std::size_t kBatch = 256;  // the oracle's refill batch size

/// Generator records through the native batched walk; the argument is
/// the batch size.
void BM_GeneratorFill(benchmark::State& state) {
  const workload::Program prog =
      workload::generate_program(workload::profile_for("eon"), 7);
  workload::TraceGenerator gen(prog, 42);
  std::vector<DynInst> buf(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.fill(buf.data(), buf.size()));
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_GeneratorFill)->Arg(256)->Arg(4096);

/// The same walk as spans: each iteration covers as many instructions
/// as one BM_GeneratorFill batch, and builds no DynInst.
void BM_GeneratorSpans(benchmark::State& state) {
  const workload::Program prog =
      workload::generate_program(workload::profile_for("eon"), 7);
  workload::TraceGenerator gen(prog, 42);
  std::vector<workload::TraceSpan> spans(512);
  const auto per_iteration = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    for (std::uint64_t left = per_iteration; left > 0;) {
      const std::size_t got = gen.fill_spans(spans.data(), spans.size(), left);
      for (std::size_t i = 0; i < got; ++i) left -= spans[i].length;
    }
    benchmark::DoNotOptimize(spans.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_GeneratorSpans)->Arg(256)->Arg(4096);

/// Replay-source batched copy, including the wrap-around seam.
void BM_ReplayFill(benchmark::State& state) {
  const workload::Program prog =
      workload::generate_program(workload::profile_for("gcc"), 11);
  workload::TraceGenerator recorder(prog, 42);
  const auto image = std::make_shared<const std::vector<DynInst>>(
      workload::read_streams(recorder, 2000));
  workload::ReplayTraceSource replay(image);
  std::vector<DynInst> buf(kBatch);
  for (auto _ : state) {
    benchmark::DoNotOptimize(replay.fill(buf.data(), buf.size()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_ReplayFill);

}  // namespace

BENCHMARK_MAIN();
