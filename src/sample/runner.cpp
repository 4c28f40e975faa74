#include "sample/runner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

#include "common/prestage_assert.hpp"
#include "common/stats.hpp"
#include "sample/sliced_source.hpp"
#include "workload/synthetic_spec.hpp"

namespace prestage::sample {

std::shared_ptr<const workload::WorkloadSpec> base_workload(
    const cpu::MachineConfig& cfg) {
  if (cfg.workload) return cfg.workload;
  return workload::synthetic_workload(cfg.benchmark, cfg.seed);
}

cpu::RunResult run_sampled_point_with_plan(
    const cpu::MachineConfig& cfg,
    const std::shared_ptr<const workload::WorkloadSpec>& base,
    const SamplePlan& plan) {
  PRESTAGE_ASSERT(!plan.slices.empty(), "sampling plan with no slices");
  PRESTAGE_ASSERT(plan.seed == cfg.seed,
                  "sampling plan was built for seed " +
                      std::to_string(plan.seed) + ", not " +
                      std::to_string(cfg.seed));
  const auto host_start = std::chrono::steady_clock::now();
  const std::uint64_t budget = cfg.max_instructions;

  std::vector<cpu::RunResult> slices;
  std::vector<double> weights;
  slices.reserve(plan.slices.size());
  weights.reserve(plan.slices.size());
  std::uint64_t cold_starts = 0;
  std::uint64_t simulated = 0;

  // Learned prefetcher state carried slice to slice (slices are in
  // ascending trace order, so state only ever moves forward in time).
  std::vector<std::uint8_t> carried_state;
  bool have_state = false;

  for (const Slice& slice : plan.slices) {
    cpu::MachineConfig slice_cfg = cfg;
    // Detailed warm-up: start `warmup_instructions` before the measured
    // region so caches, branch predictor and prefetcher tables are
    // architecturally warm when statistics open at `slice.start`. The
    // functional i-warm checkpoint covers the warm-up's own cold front.
    // The trace starts from a copy of the plan's snapshot there.
    PRESTAGE_ASSERT(slice.snapshot != nullptr,
                    "sampling plan slice has no trace snapshot "
                    "(attach_snapshots)");
    slice_cfg.workload =
        std::make_shared<const SlicedWorkloadSpec>(base, slice.snapshot);
    slice_cfg.max_instructions = slice.instructions;
    slice_cfg.warmup_instructions = slice.start - slice.warm_start;

    cpu::Cpu machine(slice_cfg);
    machine.warm_ifetch(slice.warm_lines);
    const bool restored =
        have_state && machine.prefetcher_mut().restore_state(
                          carried_state.data(), carried_state.size());
    if (!restored) ++cold_starts;

    cpu::RunResult r = machine.run();
    PRESTAGE_ASSERT(r.instructions > 0, "sampled slice committed nothing");
    simulated += r.instructions + (slice.start - slice.warm_start);

    carried_state.clear();
    have_state = machine.prefetcher().save_state(carried_state);

    weights.push_back(slice.weight);
    slices.push_back(std::move(r));
  }

  // Whole-run reconstruction: CPI is the weighted mean of per-cluster
  // slice CPIs; every listed count is the weighted per-instruction rate
  // scaled back to the full budget.
  double cpi = 0.0;
  for (std::size_t i = 0; i < slices.size(); ++i) {
    // Fixed slice order: deterministic sum.
    cpi += weights[i] * static_cast<double>(slices[i].cycles) /
           static_cast<double>(slices[i].instructions);
  }
  PRESTAGE_ASSERT(cpi > 0.0);
  const auto scale = [&](auto count_of) {
    double rate = 0.0;
    for (std::size_t i = 0; i < slices.size(); ++i) {
      // Fixed slice order: deterministic sum.
      rate += weights[i] * static_cast<double>(count_of(slices[i])) /
              static_cast<double>(slices[i].instructions);
    }
    return static_cast<std::uint64_t>(
        std::llround(rate * static_cast<double>(budget)));
  };

  cpu::RunResult out;
  out.benchmark = cfg.benchmark;
  out.instructions = budget;
  out.cycles = static_cast<Cycle>(
      std::llround(cpi * static_cast<double>(budget)));
  out.ipc = 1.0 / cpi;
  for (const auto& c : cpu::kRunCounts) {
    out.*c.member =
        scale([&](const cpu::RunResult& r) { return r.*c.member; });
  }
  for (const auto& b : cpu::kRunSources) {
    for (int si = 0; si < kNumFetchSources; ++si) {
      const auto s = static_cast<FetchSource>(si);
      (out.*b.member).add(s, scale([&](const cpu::RunResult& r) {
                            return (r.*b.member).count(s);
                          }));
    }
  }
  out.mispredicts_per_kilo_instr =
      static_cast<double>(out.recoveries) * 1000.0 /
      static_cast<double>(budget);

  // Confidence half-width (see header): weighted cluster-CPI spread as
  // the standard error of the mixture mean, floored by the relative
  // minimum that covers within-cluster bias the spread cannot see.
  double cpi_var = 0.0;
  for (std::size_t i = 0; i < slices.size(); ++i) {
    const double slice_cpi = static_cast<double>(slices[i].cycles) /
                             static_cast<double>(slices[i].instructions);
    // Fixed slice order: deterministic sum.
    cpi_var += weights[i] * (slice_cpi - cpi) * (slice_cpi - cpi);
  }
  const double n = static_cast<double>(
      plan.intervals > 0 ? plan.intervals : 1);
  const double cpi_half_width = 1.96 * std::sqrt(cpi_var / n);
  // IPC = 1/CPI, so d(IPC) = d(CPI)/CPI^2 to first order.
  const double spread_error = cpi_half_width / (cpi * cpi);
  out.ipc_error =
      std::max(spread_error, out.ipc * kMinRelativeIpcErrorPct / 100.0);

  out.sampled = true;
  out.sample_intervals = plan.intervals;
  out.sample_clusters = plan.clusters;
  out.sample_slices = plan.slices.size();
  out.sample_cold_starts = cold_starts;
  out.sample_simulated_instructions = simulated;

  const std::chrono::duration<double> host_elapsed =
      std::chrono::steady_clock::now() - host_start;
  out.host_seconds = host_elapsed.count();
  out.minstr_per_sec =
      out.host_seconds > 0.0
          ? static_cast<double>(simulated) / 1e6 / out.host_seconds
          : 0.0;
  return out;
}

std::shared_ptr<const SamplePlan> plan_for(
    const cpu::MachineConfig& cfg, const ResolvedSamplingParams& params) {
  return get_or_build_plan(*base_workload(cfg), cfg.seed,
                           cfg.max_instructions, params);
}

cpu::RunResult run_sampled_point(const cpu::MachineConfig& cfg,
                                 const ResolvedSamplingParams& params) {
  PRESTAGE_ASSERT(params.enabled, "run_sampled_point: sampling disabled");
  const auto host_start = std::chrono::steady_clock::now();
  const std::shared_ptr<const SamplePlan> plan = plan_for(cfg, params);
  cpu::RunResult out =
      run_sampled_point_with_plan(cfg, base_workload(cfg), *plan);
  // Charge this point for its plan build too, when it had to build it
  // (a cache hit costs ~0; campaign points find their plans built by
  // the engine's plan-first phase).
  const std::chrono::duration<double> host_elapsed =
      std::chrono::steady_clock::now() - host_start;
  out.host_seconds = host_elapsed.count();
  out.minstr_per_sec =
      out.host_seconds > 0.0
          ? static_cast<double>(out.sample_simulated_instructions) / 1e6 /
                out.host_seconds
          : 0.0;
  return out;
}

}  // namespace prestage::sample
