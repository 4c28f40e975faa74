#include "sample/plan.hpp"

#include <algorithm>
#include <limits>
#include <tuple>

#include "common/prestage_assert.hpp"
#include "common/single_flight.hpp"
#include "sample/kmeans.hpp"

namespace prestage::sample {

SamplePlan build_plan(const workload::WorkloadSpec& base, std::uint64_t seed,
                      std::uint64_t budget,
                      const ResolvedSamplingParams& params) {
  PRESTAGE_ASSERT(params.enabled, "build_plan: sampling not enabled");
  const std::unique_ptr<workload::TraceSource> source =
      base.make_source(seed + 17);  // the Cpu's oracle trace seed
  TraceProfile profile =
      profile_source(*source, budget, params.interval_instructions,
                     params.dim, params.warm_lines);

  std::vector<std::vector<double>> points;
  points.reserve(profile.intervals.size());
  for (const IntervalProfile& iv : profile.intervals) {
    points.push_back(iv.signature);
  }
  // The clustering seed folds in the workload identity so two workloads
  // never share a draw sequence, but no host state ever enters it.
  std::uint64_t cluster_seed = seed;
  for (const char c : base.name()) {
    cluster_seed =
        hash_mix(cluster_seed ^ static_cast<unsigned char>(c));
  }
  ClusterResult clusters =
      cluster_points(points, params.max_clusters, cluster_seed);

  SamplePlan plan;
  plan.params = params;
  plan.workload = base.name();
  plan.seed = seed;
  plan.total_instructions = profile.total_instructions;
  plan.intervals = profile.intervals.size();
  plan.unique_blocks = profile.unique_blocks;
  plan.clusters = clusters.k;
  plan.bic_by_k = std::move(clusters.bic_by_k);

  // Representative per cluster: the interval nearest its centroid
  // (strict improvement, so the lowest interval index wins ties);
  // weight = the cluster's share of profiled instructions.
  for (std::uint32_t c = 0; c < clusters.k; ++c) {
    std::size_t rep = profile.intervals.size();
    double rep_d = std::numeric_limits<double>::infinity();
    std::uint64_t cluster_instrs = 0;
    for (std::size_t i = 0; i < profile.intervals.size(); ++i) {
      if (clusters.assignment[i] != c) continue;
      cluster_instrs += profile.intervals[i].instructions;
      double d = 0.0;
      for (std::size_t dd = 0; dd < clusters.centroids[c].size(); ++dd) {
        const double diff =
            profile.intervals[i].signature[dd] - clusters.centroids[c][dd];
        // Fixed dimension order: deterministic sum.
        d += diff * diff;
      }
      if (d < rep_d) {
        rep_d = d;
        rep = i;
      }
    }
    PRESTAGE_ASSERT(rep < profile.intervals.size(),
                    "cluster with no intervals");
    Slice s;
    s.start = profile.intervals[rep].start;
    s.instructions = profile.intervals[rep].instructions;
    s.interval_index = rep;
    s.cluster = c;
    s.weight = static_cast<double>(cluster_instrs) /
               static_cast<double>(profile.total_instructions);
    // Detailed warmup runs from `warmup_intervals` whole intervals back,
    // so the functional i-warm checkpoint belongs to that earlier
    // boundary, not the slice's own. Copied, not moved: two clusters'
    // representatives can share a warm interval.
    const std::size_t warm_iv =
        rep >= params.warmup_intervals ? rep - params.warmup_intervals : 0;
    s.warm_start = profile.intervals[warm_iv].start;
    s.warm_lines = profile.intervals[warm_iv].warm_lines;
    plan.slices.push_back(std::move(s));
  }
  // Ascending start order: a run replays slices front to back, so
  // carried prefetcher state always moves forward in trace time.
  std::sort(plan.slices.begin(), plan.slices.end(),
            [](const Slice& a, const Slice& b) { return a.start < b.start; });
  return plan;
}

namespace {

using PlanKey = std::tuple<std::string, std::uint64_t, std::uint64_t,
                           std::uint64_t, std::uint32_t, std::uint32_t,
                           std::uint32_t, std::uint32_t>;

[[nodiscard]] PlanKey plan_key(const workload::WorkloadSpec& base,
                               std::uint64_t seed, std::uint64_t budget,
                               const ResolvedSamplingParams& p) {
  return {base.name(), seed,          budget,       p.interval_instructions,
          p.dim,       p.max_clusters, p.warm_lines, p.warmup_intervals};
}

}  // namespace

std::shared_ptr<const SamplePlan> get_or_build_plan(
    const workload::WorkloadSpec& base, std::uint64_t seed,
    std::uint64_t budget, const ResolvedSamplingParams& params) {
  static SingleFlight<PlanKey, SamplePlan> cache;
  return cache.get(plan_key(base, seed, budget, params), [&] {
    return std::make_shared<const SamplePlan>(
        build_plan(base, seed, budget, params));
  });
}

}  // namespace prestage::sample
