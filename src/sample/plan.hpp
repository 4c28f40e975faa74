// Sampling plans: profile -> clusters -> representative slices.
//
// A SamplePlan is the complete, deterministic recipe for a sampled run
// of one workload at one budget: which slices to simulate, at what
// weight, and with which functional warm-up stream. Plans are a pure
// function of (workload name, seed, budget, resolved params), so every
// run point of a preset x L1 x node grid shares one plan — the "one
// warm-up fans out across the grid" half of the subsystem — and the
// campaign store stays byte-identical at any worker count.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "sample/bbv.hpp"
#include "sample/params.hpp"
#include "workload/spec.hpp"

namespace prestage::sample {

/// One representative slice: simulate [start, start+instructions) and
/// count its per-instruction behavior `weight` of the whole run.
struct Slice {
  std::uint64_t start = 0;           ///< stream-aligned first instruction
  std::uint64_t instructions = 0;    ///< slice length
  std::uint64_t interval_index = 0;  ///< which profiled interval this is
  std::uint32_t cluster = 0;
  double weight = 0.0;            ///< cluster instruction share, sums to 1
  /// Stream-aligned detailed-warmup start (<= start): the run begins
  /// here and discards statistics until `start`, so caches, branch
  /// predictor and prefetcher tables are architecturally warm when the
  /// measured region opens. Equals `start` for the first interval.
  std::uint64_t warm_start = 0;
  std::vector<Addr> warm_lines;  ///< functional i-warm for `warm_start`
};

/// The full sampling recipe for one (workload, seed, budget, params).
struct SamplePlan {
  ResolvedSamplingParams params;
  std::string workload;  ///< benchmark / workload name (provenance)
  std::uint64_t seed = 0;
  std::uint64_t total_instructions = 0;  ///< profiled instruction count
  std::uint64_t intervals = 0;
  std::uint64_t unique_blocks = 0;
  std::uint32_t clusters = 0;
  std::vector<double> bic_by_k;     ///< diagnostics (not serialized)
  std::vector<Slice> slices;        ///< ascending start order
};

/// Profiles @p base once (trace seed `seed + 17`, matching the Cpu's
/// oracle) and clusters the intervals. @p budget is the full-run
/// instruction target the plan reconstructs.
[[nodiscard]] SamplePlan build_plan(const workload::WorkloadSpec& base,
                                    std::uint64_t seed, std::uint64_t budget,
                                    const ResolvedSamplingParams& params);

/// Process-wide plan cache keyed by (workload name, seed, budget,
/// params): campaign workers simulating different machine shapes of the
/// same workload share one profiling pass. Thread-safe and single-flight:
/// workers that ask for a plan while it is being built wait for that
/// build. A failed build throws and is not cached.
[[nodiscard]] std::shared_ptr<const SamplePlan> get_or_build_plan(
    const workload::WorkloadSpec& base, std::uint64_t seed,
    std::uint64_t budget, const ResolvedSamplingParams& params);

}  // namespace prestage::sample
