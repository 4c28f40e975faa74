// BBV-profiler microbenchmarks: the sampling subsystem's profiling pass
// walks every dynamic instruction of a workload once (as spans, building
// no records), so accumulator add/finish throughput and the
// whole-profile pass bound how cheap a sampling plan is relative to the
// detailed simulation it replaces. The accumulator's add() is one
// flat-map update per stream; the random projection runs in finish(),
// once per distinct block of the interval. The slice-start benchmarks price what
// a plan's trace snapshots save (every slice of every run point copies
// one instead of walking the trace) and what the plan's own snapshot
// walk costs as a span walk against a fill() walk. BM_BuildPlan times
// one whole plan: profile, clustering and the snapshot walk from the
// profile's waypoints.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "sample/bbv.hpp"
#include "sample/kmeans.hpp"
#include "sample/plan.hpp"
#include "workload/synthetic_spec.hpp"

namespace {

using namespace prestage;

/// One stream's add(): a flat-map update of its block's integer weight
/// (256 distinct blocks); the argument is the signature dimension, which
/// add() no longer touches.
void BM_SignatureAdd(benchmark::State& state) {
  sample::SignatureAccumulator acc(
      static_cast<std::uint32_t>(state.range(0)));
  Rng rng(1);
  std::vector<Addr> blocks;
  for (int i = 0; i < 256; ++i) {
    blocks.push_back(0x400000 + rng.below(1 << 16) * 4);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    acc.add(blocks[i++ % blocks.size()], 12);
  }
  benchmark::DoNotOptimize(acc.finish());
}
BENCHMARK(BM_SignatureAdd)->Arg(16)->Arg(64)->Arg(256);

/// Interval close for 64 streams over up to 64 distinct blocks: the
/// projection of each block into 16 dimensions, the L2 normalization
/// and the reset.
void BM_SignatureFinish(benchmark::State& state) {
  sample::SignatureAccumulator acc(16);
  Rng rng(2);
  for (auto _ : state) {
    state.PauseTiming();
    for (int i = 0; i < 64; ++i) {
      acc.add(0x400000 + rng.below(1 << 12) * 4, 10);
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(acc.finish());
  }
}
BENCHMARK(BM_SignatureFinish);

/// The full profiling pass over a synthetic benchmark trace — the
/// one-time cost a sampling plan amortizes across a campaign grid.
void BM_ProfileSource(benchmark::State& state) {
  const workload::SyntheticWorkloadSpec spec("eon", 1);
  const auto budget = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    auto source = spec.make_source(18);  // the Cpu's oracle trace seed
    benchmark::DoNotOptimize(
        sample::profile_source(*source, budget, budget / 40, 16, 256));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ProfileSource)->Arg(100000)->Arg(400000);

/// Deterministic k-means over profiled signatures (BIC model selection
/// across k = 1..max is inside, as build_plan runs it).
void BM_ClusterIntervals(benchmark::State& state) {
  const workload::SyntheticWorkloadSpec spec("eon", 1);
  auto source = spec.make_source(18);
  const sample::TraceProfile profile =
      sample::profile_source(*source, 400000, 5000, 16, 256);
  std::vector<std::vector<double>> points;
  for (const auto& iv : profile.intervals) points.push_back(iv.signature);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sample::cluster_points(points, 4, 1));
  }
}
BENCHMARK(BM_ClusterIntervals);

/// Walks @p source to the first stream boundary at or past @p start in
/// fill() batches (the plan's snapshot walk); returns where it landed.
std::uint64_t walk_to(workload::TraceSource& source, std::uint64_t start) {
  std::vector<workload::DynInst> batch(4096);
  workload::DynInst last;
  last.ends_stream = true;  // instruction 0 opens a stream
  while (source.instructions() < start) {
    const auto n = static_cast<std::size_t>(std::min<std::uint64_t>(
        batch.size(), start - source.instructions()));
    (void)source.fill(batch.data(), n);
    last = batch[n - 1];
  }
  while (!last.ends_stream) (void)source.fill(&last, 1);
  return source.instructions();
}

/// A slice's trace start from the plan's snapshot: one clone.
void BM_SliceStartFromSnapshot(benchmark::State& state) {
  const workload::SyntheticWorkloadSpec spec("eon", 1);
  const auto snapshot = spec.make_source(18);
  (void)walk_to(*snapshot, static_cast<std::uint64_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(snapshot->clone());
  }
}
BENCHMARK(BM_SliceStartFromSnapshot)->Arg(100000)->Arg(1000000);

/// The same start by walking a fresh source there in fill() batches;
/// slices used to pay one such walk per point.
void BM_SliceStartByWalk(benchmark::State& state) {
  const workload::SyntheticWorkloadSpec spec("eon", 1);
  const auto start = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    const auto source = spec.make_source(18);
    benchmark::DoNotOptimize(walk_to(*source, start));
  }
}
BENCHMARK(BM_SliceStartByWalk)->Arg(100000)->Arg(1000000);

/// walk_to() as a span walk, the way attach_snapshots reaches each
/// slice: no records built.
std::uint64_t span_walk_to(workload::TraceSource& source,
                           std::uint64_t start) {
  std::vector<workload::TraceSpan> spans(512);
  bool at_stream_start = true;  // instruction 0 opens a stream
  while (source.instructions() < start) {
    const std::size_t got = source.fill_spans(
        spans.data(), spans.size(), start - source.instructions());
    at_stream_start = spans[got - 1].ends_stream;
  }
  // Finish the open stream; its remainder is at most one stream long.
  while (!at_stream_start) {
    (void)source.fill_spans(spans.data(), 1, bpred::kMaxStreamInstrs);
    at_stream_start = spans[0].ends_stream;
  }
  return source.instructions();
}

/// BM_SliceStartByWalk's start reached by a span walk.
void BM_SliceStartBySpanWalk(benchmark::State& state) {
  const workload::SyntheticWorkloadSpec spec("eon", 1);
  const auto start = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    const auto source = spec.make_source(18);
    benchmark::DoNotOptimize(span_walk_to(*source, start));
  }
}
BENCHMARK(BM_SliceStartBySpanWalk)->Arg(100000)->Arg(1000000);

/// One sampling plan of eon at 10M with the perfbench `sampled` knobs
/// (50k intervals, dim 16, k <= 2, 256 warm lines, one interval of
/// warm-up): the cost each plan of that grid adds to a campaign.
void BM_BuildPlan(benchmark::State& state) {
  constexpr std::uint64_t kBudget = 10000000;
  const workload::SyntheticWorkloadSpec spec("eon", 1);
  sample::SamplingParams knobs;
  knobs.enabled = true;
  knobs.interval_instructions = 50000;
  knobs.dim = 16;
  knobs.max_clusters = 2;
  knobs.warm_lines = 256;
  knobs.warmup_intervals = 1;
  const sample::ResolvedSamplingParams params = knobs.resolve(kBudget);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sample::build_plan(spec, 1, kBudget, params));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBudget));
}
BENCHMARK(BM_BuildPlan)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
