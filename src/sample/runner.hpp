// Sampled execution of one machine configuration.
//
// run_sampled_point() replaces Cpu::run() for a run point with sampling
// enabled: it fetches (or builds) the workload's SamplePlan, simulates
// each representative slice on the requested machine shape — trace
// copied from the plan's snapshot at the slice, functional i-cache
// warm-up from the slice checkpoint, learned prefetcher state
// carried forward through IPrefetcher::save/restore with a conservative
// cold restart when a scheme declines — and reconstructs whole-run
// statistics as the weighted combination of per-slice rates, with a
// confidence half-width on IPC.
//
// Error model: the half-width is the larger of (a) a relative floor
// (kMinRelativeIpcErrorPct — sampling bias the spread cannot see) and
// (b) 1.96 x the standard error of the weighted cluster-CPI mean,
// treating the profiled intervals as draws from the cluster mixture.
#pragma once

#include <cstdint>
#include <memory>

#include "cpu/config.hpp"
#include "cpu/cpu.hpp"
#include "sample/params.hpp"
#include "sample/plan.hpp"

namespace prestage::sample {

/// Relative IPC-error floor (percent) applied to every sampled estimate.
inline constexpr double kMinRelativeIpcErrorPct = 5.0;

/// Runs @p cfg sampled under @p params. cfg.max_instructions is the
/// full-run budget being estimated. Uses the process-wide plan cache, so
/// grid neighbors (other presets/L1 sizes/nodes of the same workload)
/// profile only once.
[[nodiscard]] cpu::RunResult run_sampled_point(
    const cpu::MachineConfig& cfg, const ResolvedSamplingParams& params);

/// Same, but against an explicit plan (CLI `sample run --plan`,
/// checkpoint round-trip tests). @p base must be the workload the plan
/// was built from, at cfg.seed, and every slice needs its snapshot
/// (build_plan attaches them; a checkpoint's plan needs
/// attach_snapshots).
[[nodiscard]] cpu::RunResult run_sampled_point_with_plan(
    const cpu::MachineConfig& cfg,
    const std::shared_ptr<const workload::WorkloadSpec>& base,
    const SamplePlan& plan);

/// The process-wide cached plan run_sampled_point uses for @p cfg
/// (base_workload(cfg) at cfg's seed and budget), built on first use.
/// The campaign engine calls it for every distinct plan before any
/// point runs.
[[nodiscard]] std::shared_ptr<const SamplePlan> plan_for(
    const cpu::MachineConfig& cfg, const ResolvedSamplingParams& params);

/// The workload a config samples over, and the one its Cpu runs:
/// cfg.workload when set, else the process-wide synthetic spec for
/// (cfg.benchmark, cfg.seed) (workload::synthetic_workload).
[[nodiscard]] std::shared_ptr<const workload::WorkloadSpec> base_workload(
    const cpu::MachineConfig& cfg);

}  // namespace prestage::sample
