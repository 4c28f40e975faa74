// The `prestage` subcommands. Each returns a process exit code.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "cli/options.hpp"
#include "cpu/config.hpp"
#include "workload/trace_file.hpp"

namespace prestage::cli {

// --- set-up shared by the single-point commands ----------------------------

/// The one benchmark @p command simulates: --bench, default eon. Empty,
/// after a usage error on stderr, when --bench names several or one the
/// catalogue lacks.
[[nodiscard]] std::string single_benchmark(const Options& opt,
                                           std::string_view command);

/// A --trace file as a workload, and the format it was read in.
struct TraceWorkload {
  workload::TraceFormat format;
  std::shared_ptr<const workload::ReplayWorkloadSpec> spec;
};

/// Reads the --trace file in the --format given, else in the sniffed
/// one (ChampSim imports honour --max-records). Throws SimError when
/// the file is missing or unreadable.
[[nodiscard]] TraceWorkload trace_workload(const Options& opt);

/// The machine --preset, --node and --l1 name, running @p benchmark
/// (only a label when @p workload is set) for --instrs instructions, or
/// sim::default_instructions().
[[nodiscard]] cpu::MachineConfig machine_config(
    const Options& opt, const std::string& benchmark,
    std::shared_ptr<const workload::WorkloadSpec> workload = nullptr);

// --- commands ----------------------------------------------------------------

/// Simulates one benchmark on one configuration and prints the headline
/// statistics (the quickstart flow, parameterised).
int cmd_run(const Options& opt);

/// Runs the benchmark suite (default: all 12) on one configuration and
/// reports per-benchmark IPC plus the harmonic mean.
int cmd_suite(const Options& opt);

/// Sweeps L1 I-cache sizes (default: the paper's X axis) and reports
/// HMEAN IPC per size.
int cmd_sweep(const Options& opt);

/// Lists presets, technology nodes and benchmarks.
int cmd_list(const Options& opt);

/// Records a synthetic benchmark run to a versioned trace file (--out).
int cmd_trace_record(const Options& opt);

/// Replays a trace file (native or ChampSim, sniffed or forced with
/// --format) through the full pipeline.
int cmd_trace_replay(const Options& opt);

/// Prints a trace file's header and import summary without simulating.
int cmd_trace_info(const Options& opt);

/// Runs (or resumes) a registered campaign grid against its JSONL result
/// store, skipping points whose key is already stored. @p resume
/// additionally requires the store to exist. Exit 4 when any point was
/// quarantined (the grid otherwise completed; see `<store>.failures`).
int cmd_campaign_run(const Options& opt, bool resume);

/// Reports how much of a campaign grid the store covers.
int cmd_campaign_status(const Options& opt);

/// Diffs a candidate store against a baseline store and flags IPC
/// regressions beyond --threshold. Exit 3 when regressions are found.
int cmd_campaign_compare(const Options& opt);

/// Emits the campaign's figure report (BENCH_<name>.json by default)
/// from a complete store; a `.perf` sidecar next to the store adds the
/// host-throughput section.
int cmd_campaign_report(const Options& opt);

/// Streams one BBV profiling pass over a workload (--bench or --trace)
/// and reports its interval/phase structure.
int cmd_sample_profile(const Options& opt);

/// Profiles and clusters a workload into a sampling plan; --out saves it
/// as a PSCK checkpoint.
int cmd_sample_plan(const Options& opt);

/// Executes one sampled run point (fresh plan, or --plan checkpoint) and
/// reconstructs whole-run statistics with a confidence half-width. A
/// corrupt or missing checkpoint falls back to a fresh plan (counted as
/// a cold start) rather than aborting.
int cmd_sample_run(const Options& opt);

/// Lists the registered fault-injection sites and whatever
/// PRESTAGE_FAULTS currently arms.
int cmd_faults_list(const Options& opt);

}  // namespace prestage::cli
