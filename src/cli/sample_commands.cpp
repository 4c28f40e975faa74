// The `prestage sample` subcommands: the CLI surface of the sampled
// simulation subsystem.
//
//   sample profile  — one streaming BBV pass over a workload; prints the
//                     interval/phase structure the clusterer consumes
//   sample plan     — profile + cluster into a sampling plan; optionally
//                     saved as a PSCK checkpoint (--out)
//   sample run      — execute one sampled point (fresh plan or --plan
//                     checkpoint) and reconstruct whole-run statistics
//                     with a confidence half-width
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <tuple>

#include "bpred/stream.hpp"
#include "cli/commands.hpp"
#include "cli/json_sink.hpp"
#include "common/json_writer.hpp"
#include "common/table.hpp"
#include "sample/bbv.hpp"
#include "sample/checkpoint.hpp"
#include "sample/plan.hpp"
#include "sample/runner.hpp"
#include "sim/presets.hpp"
#include "sim/report.hpp"

namespace prestage::cli {
namespace {

/// The machine a sample subcommand works on: over the --trace file when
/// one is given, else over the single --bench. Empty after a usage
/// error, which giving both is: the trace would drop --bench.
std::optional<cpu::MachineConfig> sample_machine(const Options& opt) {
  if (!opt.trace_path.empty()) {
    if (!opt.benchmarks.empty()) {
      std::cerr << "prestage: `sample` takes --trace or --bench, not both\n";
      return std::nullopt;
    }
    const auto trace = trace_workload(opt).spec;
    return machine_config(opt, trace->name(), trace);
  }
  const std::string benchmark = single_benchmark(opt, "sample");
  if (benchmark.empty()) return std::nullopt;
  return machine_config(opt, benchmark);
}

/// CLI sampling knobs as the user-facing params block (zeros = default).
sample::SamplingParams sampling_params(const Options& opt) {
  sample::SamplingParams p;
  p.enabled = true;
  p.interval_instructions = opt.sample_interval;
  p.dim = opt.bbv_dim;
  p.max_clusters = opt.max_clusters;
  p.warm_lines = opt.warm_lines;
  p.warmup_intervals = opt.warmup_intervals;
  return p;
}

/// Why checkpoint @p plan cannot stand for a run of @p opt over @p
/// budget instructions of @p workload, naming what differs; empty when
/// it can. It must be the workload's, a knob given on the command line
/// must be the checkpoint's, and the budget one it was profiled for: a
/// profile of B instructions ends at the first stream boundary at or
/// past B, so it holds B to B + kMaxStreamInstrs - 1 instructions.
std::string checkpoint_mismatch(const Options& opt,
                                const sample::SamplePlan& plan,
                                const std::string& workload,
                                std::uint64_t budget) {
  if (plan.workload != workload) {
    return "checkpoint '" + opt.plan_path + "' was built for workload '" +
           plan.workload + "', not '" + workload + "'";
  }
  const auto differs = [&opt](const char* flag, std::uint64_t given,
                              const std::string& planned) {
    return std::string(flag) + " " + std::to_string(given) +
           " does not match checkpoint '" + opt.plan_path + "' (" + planned +
           ")";
  };
  const std::tuple<const char*, std::uint64_t, std::uint64_t> knobs[] = {
      {"--interval", opt.sample_interval, plan.params.interval_instructions},
      {"--dim", opt.bbv_dim, plan.params.dim},
      {"--max-k", opt.max_clusters, plan.params.max_clusters},
      {"--warm-lines", opt.warm_lines, plan.params.warm_lines},
      {"--warmup", opt.warmup_intervals, plan.params.warmup_intervals}};
  for (const auto& [flag, given, planned] : knobs) {
    if (given != 0 && given != planned) {  // 0: the flag was not given
      return differs(flag, given, "built with " + std::to_string(planned));
    }
  }
  const std::uint64_t total = plan.total_instructions;
  if (total < budget || total - budget >= bpred::kMaxStreamInstrs) {
    return differs("--instrs", budget,
                   "profiled " + std::to_string(total) + " instructions");
  }
  return {};
}

void write_params_fields(JsonWriter& json,
                         const sample::ResolvedSamplingParams& p) {
  json.field("interval_instructions", p.interval_instructions);
  json.field("dim", p.dim);
  json.field("max_clusters", p.max_clusters);
  json.field("warm_lines", p.warm_lines);
  json.field("warmup_intervals", p.warmup_intervals);
}

void print_params(const sample::ResolvedSamplingParams& p,
                  const std::string& workload, std::uint64_t budget) {
  std::printf("workload    : %s, %llu instruction budget\n",
              workload.c_str(), static_cast<unsigned long long>(budget));
  std::printf("sampling    : interval %llu instrs, dim %u, max k %u, "
              "%u warm lines, %u warm-up intervals\n",
              static_cast<unsigned long long>(p.interval_instructions),
              p.dim, p.max_clusters, p.warm_lines, p.warmup_intervals);
}

}  // namespace

int cmd_sample_profile(const Options& opt) {
  const auto cfg = sample_machine(opt);
  if (!cfg) return 2;
  const auto spec = sample::base_workload(*cfg);
  const std::uint64_t budget = cfg->max_instructions;
  const sample::ResolvedSamplingParams params =
      sampling_params(opt).resolve(budget);

  JsonSink sink(opt.json_path);
  if (sink.failed()) return 1;
  if (!sink.owns_stdout()) print_params(params, spec->name(), budget);

  // The Cpu's and build_plan's trace seed, so the intervals printed here
  // are exactly the ones a plan would use.
  const auto source = spec->make_source(cpu::oracle_trace_seed(cfg->seed));
  const sample::TraceProfile profile = sample::profile_source(
      *source, budget, params.interval_instructions, params.dim,
      params.warm_lines);

  if (!sink.owns_stdout()) {
    std::printf("profile     : %zu intervals over %llu instructions, "
                "%llu unique blocks\n",
                profile.intervals.size(),
                static_cast<unsigned long long>(profile.total_instructions),
                static_cast<unsigned long long>(profile.unique_blocks));
    double min_sim = 1.0;
    for (std::size_t i = 1; i < profile.intervals.size(); ++i) {
      min_sim = std::min(
          min_sim, sample::cosine_similarity(
                       profile.intervals[i - 1].signature,
                       profile.intervals[i].signature));
    }
    if (profile.intervals.size() > 1) {
      std::printf("phases      : min adjacent BBV similarity %.3f\n",
                  min_sim);
    }
  }

  if (sink.wanted()) {
    JsonWriter json(sink.stream());
    json.begin_object();
    json.field("schema", "prestage-sample-profile-v1");
    json.field("workload", spec->name());
    json.field("seed", cfg->seed);
    json.field("budget", budget);
    write_params_fields(json, params);
    json.field("total_instructions", profile.total_instructions);
    json.field("unique_blocks", profile.unique_blocks);
    json.key("intervals");
    json.begin_array();
    for (std::size_t i = 0; i < profile.intervals.size(); ++i) {
      const sample::IntervalProfile& iv = profile.intervals[i];
      json.begin_object();
      json.field("start", iv.start);
      json.field("instructions", iv.instructions);
      if (i > 0) {
        json.field("similarity_to_prev",
                   sample::cosine_similarity(
                       profile.intervals[i - 1].signature, iv.signature));
      }
      json.field("warm_lines",
                 static_cast<std::uint64_t>(iv.warm_lines.size()));
      json.end_object();
    }
    json.end_array();
    json.end_object();
    if (!sink.finish()) return 1;
  }
  return 0;
}

int cmd_sample_plan(const Options& opt) {
  const auto cfg = sample_machine(opt);
  if (!cfg) return 2;
  const auto spec = sample::base_workload(*cfg);
  const std::uint64_t budget = cfg->max_instructions;
  const sample::ResolvedSamplingParams params =
      sampling_params(opt).resolve(budget);

  JsonSink sink(opt.json_path);
  if (sink.failed()) return 1;
  if (!sink.owns_stdout()) print_params(params, spec->name(), budget);

  const sample::SamplePlan plan =
      sample::build_plan(*spec, cfg->seed, budget, params);
  std::uint64_t sliced = 0;
  for (const sample::Slice& s : plan.slices) sliced += s.instructions;

  if (!opt.out_path.empty()) {
    sample::write_checkpoint_file(opt.out_path, plan);
  }

  if (!sink.owns_stdout()) {
    std::printf("clusters    : k=%u of %llu intervals (BIC over k:",
                plan.clusters,
                static_cast<unsigned long long>(plan.intervals));
    for (const double bic : plan.bic_by_k) std::printf(" %.0f", bic);
    std::printf(")\n");
    Table t({"slice", "interval", "start", "instrs", "cluster", "weight"});
    for (std::size_t i = 0; i < plan.slices.size(); ++i) {
      const sample::Slice& s = plan.slices[i];
      t.add_row({std::to_string(i), std::to_string(s.interval_index),
                 std::to_string(s.start), std::to_string(s.instructions),
                 std::to_string(s.cluster), fmt(s.weight, 4)});
    }
    std::cout << t.to_text();
    std::printf("coverage    : %llu of %llu instructions simulated "
                "(%.1fx reduction)\n",
                static_cast<unsigned long long>(sliced),
                static_cast<unsigned long long>(budget),
                sliced > 0 ? static_cast<double>(budget) /
                                 static_cast<double>(sliced)
                           : 0.0);
    if (!opt.out_path.empty()) {
      std::printf("checkpoint  : wrote %s (PSCK v%u)\n",
                  opt.out_path.c_str(), sample::kCheckpointVersion);
    }
  }

  if (sink.wanted()) {
    JsonWriter json(sink.stream());
    json.begin_object();
    json.field("schema", "prestage-sample-plan-v1");
    json.field("workload", plan.workload);
    json.field("seed", plan.seed);
    json.field("budget", budget);
    write_params_fields(json, plan.params);
    json.field("total_instructions", plan.total_instructions);
    json.field("intervals", plan.intervals);
    json.field("unique_blocks", plan.unique_blocks);
    json.field("clusters", plan.clusters);
    json.key("bic_by_k");
    json.begin_array();
    for (const double bic : plan.bic_by_k) json.value(bic);
    json.end_array();
    json.key("slices");
    json.begin_array();
    for (const sample::Slice& s : plan.slices) {
      json.begin_object();
      json.field("start", s.start);
      json.field("instructions", s.instructions);
      json.field("interval_index", s.interval_index);
      json.field("cluster", s.cluster);
      json.field("weight", s.weight);
      json.field("warm_lines",
                 static_cast<std::uint64_t>(s.warm_lines.size()));
      json.end_object();
    }
    json.end_array();
    json.field("simulated_instructions", sliced);
    if (!opt.out_path.empty()) {
      json.field("checkpoint", opt.out_path);
      json.field("checkpoint_version", sample::kCheckpointVersion);
    }
    json.end_object();
    if (!sink.finish()) return 1;
  }
  return 0;
}

int cmd_sample_run(const Options& opt) {
  const auto cfg = sample_machine(opt);
  if (!cfg) return 2;
  const auto spec = sample::base_workload(*cfg);
  const std::uint64_t budget = cfg->max_instructions;

  JsonSink sink(opt.json_path);
  if (sink.failed()) return 1;
  if (!sink.owns_stdout()) {
    std::printf("machine     : %s @ %s, L1=%llu\n",
                sim::preset_label(opt.preset).c_str(),
                std::string(cacti::to_string(opt.node)).c_str(),
                static_cast<unsigned long long>(opt.l1i_size));
  }

  cpu::RunResult r;
  sample::ResolvedSamplingParams params;
  bool checkpoint_fallback = false;
  if (!opt.plan_path.empty()) {
    // A corrupt, truncated or missing checkpoint degrades to a fresh
    // plan (counted as one cold start, like a slice whose saved state
    // was declined) instead of aborting: the checkpoint is a cache of
    // the plan, never the only way to build it. A readable checkpoint
    // for another workload, knobs or budget stays a usage error —
    // silently replanning would mask pointing --plan at the wrong file,
    // and running it would report its plan under the command's labels.
    sample::SamplePlan plan;
    try {
      plan = sample::read_checkpoint_file(opt.plan_path);
    } catch (const SimError& e) {
      std::cerr << "prestage: warning: checkpoint '" << opt.plan_path
                << "' is unreadable (" << e.what()
                << "); falling back to a fresh plan\n";
      checkpoint_fallback = true;
    }
    if (!checkpoint_fallback) {
      const std::string why =
          checkpoint_mismatch(opt, plan, spec->name(), budget);
      if (!why.empty()) {
        std::cerr << "prestage: " << why << "\n";
        return 2;
      }
      params = plan.params;
      if (!sink.owns_stdout()) {
        std::printf("checkpoint  : %s (PSCK v%u, %zu slices)\n",
                    opt.plan_path.c_str(), sample::kCheckpointVersion,
                    plan.slices.size());
      }
      // PSCK stores no trace state: the slice snapshots come from the
      // same one walk build_plan makes.
      sample::attach_snapshots(plan, *spec);
      r = sample::run_sampled_point_with_plan(*cfg, spec, plan);
    }
  }
  if (opt.plan_path.empty() || checkpoint_fallback) {
    params = sampling_params(opt).resolve(budget);
    if (!sink.owns_stdout()) print_params(params, spec->name(), budget);
    r = sample::run_sampled_point(*cfg, params);
    if (checkpoint_fallback) r.sample_cold_starts += 1;
  }

  const double speedup =
      r.sample_simulated_instructions > 0
          ? static_cast<double>(budget) /
                static_cast<double>(r.sample_simulated_instructions)
          : 0.0;
  if (!sink.owns_stdout()) {
    std::printf("estimate    : IPC %.3f +/- %.3f (%llu cycles over %llu "
                "instructions)\n",
                r.ipc, r.ipc_error,
                static_cast<unsigned long long>(r.cycles),
                static_cast<unsigned long long>(r.instructions));
    std::printf("slices      : %llu of %llu clusters, %llu cold starts\n",
                static_cast<unsigned long long>(r.sample_slices),
                static_cast<unsigned long long>(r.sample_clusters),
                static_cast<unsigned long long>(r.sample_cold_starts));
    std::printf("speedup     : simulated %llu of %llu instructions "
                "(%.1fx)\n",
                static_cast<unsigned long long>(
                    r.sample_simulated_instructions),
                static_cast<unsigned long long>(budget), speedup);
    std::printf("host        : %s\n",
                sim::render_host_perf({r.host_seconds, r.minstr_per_sec})
                    .c_str());
  }

  if (sink.wanted()) {
    JsonWriter json(sink.stream());
    json.begin_object();
    json.field("schema", "prestage-sample-run-v1");
    json.field("preset", opt.preset);
    json.field("node", cacti::to_string(opt.node));
    json.field("l1i_size", opt.l1i_size);
    json.field("workload", spec->name());
    json.field("budget", budget);
    write_params_fields(json, params);
    if (!opt.plan_path.empty()) {
      json.field("checkpoint_fallback", checkpoint_fallback);
    }
    json.key("result");
    json.begin_object();
    cpu::write_result_body(json, r);
    cpu::write_sampling_fields(json, r);
    json.field("effective_speedup", speedup);
    json.field("host_seconds", r.host_seconds);
    json.field("minstr_per_sec", r.minstr_per_sec);
    json.end_object();
    json.end_object();
    if (!sink.finish()) return 1;
  }
  return 0;
}

}  // namespace prestage::cli
