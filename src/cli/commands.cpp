#include "cli/commands.hpp"

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <utility>

#include "bench/figures.hpp"
#include "campaign/engine.hpp"
#include "campaign/report.hpp"
#include "cli/json_sink.hpp"
#include "common/json_writer.hpp"
#include "common/table.hpp"
#include "cpu/cpu.hpp"
#include "prefetch/registry.hpp"
#include "sim/presets.hpp"
#include "sim/report.hpp"
#include "workload/champsim.hpp"
#include "workload/profiles.hpp"
#include "workload/trace_file.hpp"

namespace prestage::cli {
namespace {

/// Checks every requested benchmark against the workload catalogue.
bool validate_benchmarks(const std::vector<std::string>& requested) {
  const auto& known = workload::benchmark_names();
  for (const auto& name : requested) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      std::cerr << "prestage: unknown benchmark '" << name
                << "' (see `prestage list`)\n";
      return false;
    }
  }
  return true;
}

void write_run_result(JsonWriter& json, const cpu::RunResult& r) {
  json.begin_object();
  json.field("benchmark", r.benchmark);
  cpu::write_result_body(json, r);
  json.field("host_seconds", r.host_seconds);
  json.field("minstr_per_sec", r.minstr_per_sec);
  json.field("cycles_skipped", r.cycles_skipped);
  json.end_object();
}

/// Shared document preamble: the schema, then the configuration echoed
/// back for provenance.
void begin_document(JsonWriter& json, const char* schema,
                    const Options& opt, std::uint64_t instructions) {
  json.begin_object();
  json.field("schema", schema);
  json.field("preset", opt.preset);
  json.field("node", cacti::to_string(opt.node));
  json.field("l1i_size", opt.l1i_size);
  json.field("instructions", instructions);
}

/// Resolves --format (or sniffs the file) for `trace replay`/`trace
/// info`; throws SimError when the file is missing or unrecognizable.
workload::TraceFormat resolve_trace_format(const Options& opt) {
  if (opt.trace_format == "native") return workload::TraceFormat::Native;
  if (opt.trace_format == "champsim") {
    return workload::TraceFormat::ChampSim;
  }
  return workload::detect_trace_format(opt.trace_path);
}

[[nodiscard]] const char* format_name(workload::TraceFormat f) {
  return f == workload::TraceFormat::Native ? "native" : "champsim";
}

void print_run_summary(const cpu::RunResult& r) {
  std::printf("instructions: %llu committed in %llu cycles -> IPC %.3f\n",
              static_cast<unsigned long long>(r.instructions),
              static_cast<unsigned long long>(r.cycles), r.ipc);
  std::printf("host        : %s\n",
              sim::render_host_perf({r.host_seconds, r.minstr_per_sec})
                  .c_str());
  std::printf(
      "fetch source: PB %s  L0 %s  L1 %s  L2 %s  Mem %s\n",
      fmt_pct(r.fetch_sources.fraction(FetchSource::PreBuffer)).c_str(),
      fmt_pct(r.fetch_sources.fraction(FetchSource::L0)).c_str(),
      fmt_pct(r.fetch_sources.fraction(FetchSource::L1)).c_str(),
      fmt_pct(r.fetch_sources.fraction(FetchSource::L2)).c_str(),
      fmt_pct(r.fetch_sources.fraction(FetchSource::Memory)).c_str());
}

/// The grid `suite` and `sweep` run: one preset at one node over
/// @p sizes and the requested benchmarks (the full suite by default).
/// The CLI has already folded any "@node" into opt.node and
/// canonicalized opt.preset, so expand() takes the spec as is.
campaign::CampaignSpec suite_spec(const Options& opt,
                                  std::vector<std::uint64_t> sizes) {
  campaign::CampaignSpec spec;
  spec.presets = {opt.preset};
  spec.nodes = {opt.node};
  spec.l1_sizes = std::move(sizes);
  spec.benchmarks = opt.benchmarks;
  spec.instructions = opt.instructions;  // 0: sim::default_instructions()
  return spec;
}

/// Host telemetry summed over every point of a grid, in grid order.
sim::HostPerf grid_host_perf(const campaign::ResultStore& store) {
  sim::HostPerfAccumulator acc;
  for (const campaign::PointResult& p : store.entries()) {
    acc.add(p.result.host_seconds, p.result.minstr_per_sec);
  }
  return acc.result();
}

void print_machine_banner(const cpu::MachineConfig& cfg,
                          const Options& opt) {
  const cpu::DerivedTimings t = cpu::DerivedTimings::from(cfg);
  std::printf("machine     : %s @ %s, L1=%s (%d cycles), L0=%s%s, "
              "PB=%u entries (%d cycles), L2 %d cycles\n",
              sim::preset_label(opt.preset).c_str(),
              std::string(cacti::to_string(opt.node)).c_str(),
              fmt_bytes(cfg.l1i_size).c_str(), t.l1i_latency,
              fmt_bytes(t.l0_size).c_str(), cfg.has_l0 ? "" : " (disabled)",
              cfg.prebuffer_entries, t.prebuffer_latency, t.l2_latency);
}

}  // namespace

std::string single_benchmark(const Options& opt, std::string_view command) {
  if (opt.benchmarks.size() > 1) {
    std::cerr << "prestage: `" << command << "` takes a single --bench\n";
    return {};
  }
  const std::string benchmark =
      opt.benchmarks.empty() ? "eon" : opt.benchmarks.front();
  return validate_benchmarks({benchmark}) ? benchmark : std::string();
}

TraceWorkload trace_workload(const Options& opt) {
  const workload::TraceFormat format = resolve_trace_format(opt);
  if (format == workload::TraceFormat::Native) {
    return {format, workload::load_replay_spec(opt.trace_path)};
  }
  return {format,
          workload::import_champsim_trace(opt.trace_path, opt.max_records)};
}

cpu::MachineConfig machine_config(
    const Options& opt, const std::string& benchmark,
    std::shared_ptr<const workload::WorkloadSpec> workload) {
  cpu::MachineConfig cfg =
      sim::make_config(opt.preset, opt.node, opt.l1i_size);
  cfg.benchmark = benchmark;
  cfg.max_instructions =
      opt.instructions > 0 ? opt.instructions : sim::default_instructions();
  cfg.workload = std::move(workload);
  return cfg;
}

int cmd_run(const Options& opt) {
  const std::string benchmark = single_benchmark(opt, "run");
  if (benchmark.empty()) return 2;
  const cpu::MachineConfig cfg = machine_config(opt, benchmark);

  // Open the sink up front: an unwritable path must fail before the
  // simulation burns its budget, not after.
  JsonSink sink(opt.json_path);
  if (sink.failed()) return 1;

  if (!sink.owns_stdout()) {
    std::printf("benchmark   : %s (synthetic SPECint2000-like)\n",
                benchmark.c_str());
    print_machine_banner(cfg, opt);
  }

  cpu::Cpu machine(cfg);
  const cpu::RunResult r = machine.run();

  if (!sink.owns_stdout()) {
    print_run_summary(r);
    std::printf("branches    : %.2f mispredictions per kilo-instruction "
                "(%llu recoveries)\n",
                r.mispredicts_per_kilo_instr,
                static_cast<unsigned long long>(r.recoveries));
    std::printf("prefetches  : %llu issued; L2 hit/miss %llu/%llu\n",
                static_cast<unsigned long long>(r.prefetches_issued),
                static_cast<unsigned long long>(r.l2_hits),
                static_cast<unsigned long long>(r.l2_misses));
  }

  if (sink.wanted()) {
    JsonWriter json(sink.stream());
    begin_document(json, "prestage-run-v1", opt, cfg.max_instructions);
    json.field("storage_bits", machine.prefetcher().storage_bits());
    json.key("result");
    write_run_result(json, r);
    json.end_object();
    if (!sink.finish()) return 1;
  }
  return 0;
}

int cmd_suite(const Options& opt) {
  if (!validate_benchmarks(opt.benchmarks)) return 2;
  const campaign::CampaignSpec spec = suite_spec(opt, {opt.l1i_size});
  const std::uint64_t instrs = spec.resolved_instructions();

  JsonSink sink(opt.json_path);
  if (sink.failed()) return 1;
  if (!sink.owns_stdout()) {
    print_machine_banner(sim::make_config(opt.preset, opt.node, opt.l1i_size),
                         opt);
    std::printf("suite       : %zu benchmarks x %llu instructions\n",
                spec.resolved_benchmarks().size(),
                static_cast<unsigned long long>(instrs));
  }

  const campaign::ResultStore store = campaign::run_in_memory(spec, opt.jobs);
  const campaign::ResultGrid grid(spec, store);
  const double hmean = grid.hmean_ipc(opt.preset, opt.node, opt.l1i_size);
  const sim::HostPerf host = grid_host_perf(store);
  const auto result = [&](const std::string& bench) -> const cpu::RunResult& {
    return grid.at(opt.preset, opt.node, opt.l1i_size, bench)->result;
  };

  if (!sink.owns_stdout()) {
    Table table(
        {"benchmark", "IPC", "MPKI", "PB", "il0", "il1", "ul2", "Mem"});
    for (const std::string& bench : grid.benchmarks()) {
      const cpu::RunResult& r = result(bench);
      table.add_row({r.benchmark, fmt(r.ipc, 3),
                     fmt(r.mispredicts_per_kilo_instr, 2),
                     fmt_pct(r.fetch_sources.fraction(FetchSource::PreBuffer)),
                     fmt_pct(r.fetch_sources.fraction(FetchSource::L0)),
                     fmt_pct(r.fetch_sources.fraction(FetchSource::L1)),
                     fmt_pct(r.fetch_sources.fraction(FetchSource::L2)),
                     fmt_pct(r.fetch_sources.fraction(FetchSource::Memory))});
    }
    std::cout << table.to_text();
    std::printf("hmean IPC   : %.3f\n", hmean);
    std::printf("host        : %s\n", sim::render_host_perf(host).c_str());
  }

  if (sink.wanted()) {
    JsonWriter json(sink.stream());
    begin_document(json, "prestage-suite-v1", opt, instrs);
    json.key("benchmarks");
    json.begin_array();
    for (const std::string& bench : grid.benchmarks()) {
      write_run_result(json, result(bench));
    }
    json.end_array();
    json.field("hmean_ipc", hmean);
    for (const auto& b : cpu::kRunSources) {
      json.key(b.key);
      write_source_counts(
          json, grid.sources(b.member, opt.preset, opt.node, opt.l1i_size));
    }
    json.key("host");
    sim::write_host_perf(json, host);
    json.end_object();
    if (!sink.finish()) return 1;
  }
  return 0;
}

int cmd_sweep(const Options& opt) {
  if (!validate_benchmarks(opt.benchmarks)) return 2;
  const campaign::CampaignSpec spec =
      suite_spec(opt, opt.sizes.empty() ? sim::paper_l1_sizes() : opt.sizes);

  JsonSink sink(opt.json_path);
  if (sink.failed()) return 1;

  // Every size is one grid: the whole sweep shares one worker pool.
  const campaign::ResultStore store = campaign::run_in_memory(spec, opt.jobs);
  const campaign::ResultGrid grid(spec, store);
  sim::Series series;
  series.label = sim::preset_label(opt.preset);
  for (const std::uint64_t size : spec.l1_sizes) {
    series.values.push_back(grid.hmean_ipc(opt.preset, opt.node, size));
  }
  const sim::HostPerf host = grid_host_perf(store);

  if (!sink.owns_stdout()) {
    std::cout << sim::render_size_chart(
        "HMEAN IPC vs L1 size, " + sim::preset_label(opt.preset) + " @ " +
            std::string(cacti::to_string(opt.node)),
        spec.l1_sizes, {series});
    std::printf("host        : %s\n", sim::render_host_perf(host).c_str());
  }

  if (sink.wanted()) {
    JsonWriter json(sink.stream());
    json.begin_object();
    json.field("schema", "prestage-sweep-v1");
    json.field("preset", opt.preset);
    json.field("node", cacti::to_string(opt.node));
    json.field("instructions", spec.resolved_instructions());
    json.key("points");
    json.begin_array();
    for (std::size_t i = 0; i < spec.l1_sizes.size(); ++i) {
      json.begin_object();
      json.field("l1i_size", spec.l1_sizes[i]);
      json.field("hmean_ipc", series.values[i]);
      json.end_object();
    }
    json.end_array();
    json.key("host");
    sim::write_host_perf(json, host);
    json.end_object();
    if (!sink.finish()) return 1;
  }
  return 0;
}

int cmd_trace_record(const Options& opt) {
  const std::string benchmark = single_benchmark(opt, "trace record");
  if (benchmark.empty()) return 2;
  if (opt.out_path.empty()) {
    std::cerr << "prestage: `trace record` needs --out FILE\n";
    return 2;
  }
  const cpu::MachineConfig cfg = machine_config(opt, benchmark);

  JsonSink sink(opt.json_path);
  if (sink.failed()) return 1;
  if (!sink.owns_stdout()) {
    std::printf("recording   : %s, %llu instructions -> %s\n",
                benchmark.c_str(),
                static_cast<unsigned long long>(cfg.max_instructions),
                opt.out_path.c_str());
    print_machine_banner(cfg, opt);
  }

  cpu::Cpu machine(cfg);
  const cpu::RunResult r = machine.run();
  // The synthetic walk is a pure function of (program, trace seed), so a
  // fresh walker re-reads exactly the records the run's oracle read.
  workload::TraceHeader header;
  header.benchmark = benchmark;
  header.program_seed = cfg.seed;
  header.trace_seed = cpu::oracle_trace_seed(cfg.seed);
  workload::TraceGenerator walk(machine.program(), header.trace_seed);
  const std::vector<workload::DynInst> records =
      workload::read_streams(walk, machine.trace_records_read());
  header.record_count = records.size();
  workload::write_trace_file(opt.out_path, header, records);

  if (!sink.owns_stdout()) {
    print_run_summary(r);
    std::printf("trace       : wrote %llu records to %s\n",
                static_cast<unsigned long long>(header.record_count),
                opt.out_path.c_str());
  }

  if (sink.wanted()) {
    JsonWriter json(sink.stream());
    begin_document(json, "prestage-trace-record-v1", opt,
                   cfg.max_instructions);
    json.key("trace");
    json.begin_object();
    json.field("path", opt.out_path);
    json.field("format", "native");
    json.field("version", workload::kTraceVersion);
    json.field("benchmark", header.benchmark);
    json.field("program_seed", header.program_seed);
    json.field("trace_seed", header.trace_seed);
    json.field("records", header.record_count);
    json.end_object();
    json.key("result");
    write_run_result(json, r);
    json.end_object();
    if (!sink.finish()) return 1;
  }
  return 0;
}

int cmd_trace_replay(const Options& opt) {
  if (opt.trace_path.empty()) {
    std::cerr << "prestage: `trace replay` needs --trace FILE\n";
    return 2;
  }
  const auto [format, spec] = trace_workload(opt);
  const cpu::MachineConfig cfg = machine_config(opt, spec->name(), spec);

  JsonSink sink(opt.json_path);
  if (sink.failed()) return 1;
  if (!sink.owns_stdout()) {
    std::printf("replaying   : %s (%s, %llu records)\n",
                opt.trace_path.c_str(), format_name(format),
                static_cast<unsigned long long>(spec->records().size()));
    print_machine_banner(cfg, opt);
  }

  cpu::Cpu machine(cfg);
  const cpu::RunResult r = machine.run();

  if (!sink.owns_stdout()) print_run_summary(r);

  if (sink.wanted()) {
    JsonWriter json(sink.stream());
    begin_document(json, "prestage-trace-replay-v1", opt,
                   cfg.max_instructions);
    json.key("trace");
    json.begin_object();
    json.field("path", opt.trace_path);
    json.field("format", format_name(format));
    json.field("records",
               static_cast<std::uint64_t>(spec->records().size()));
    json.field("benchmark", spec->name());
    json.end_object();
    json.key("result");
    write_run_result(json, r);
    json.end_object();
    if (!sink.finish()) return 1;
  }
  return 0;
}

int cmd_trace_info(const Options& opt) {
  if (opt.trace_path.empty()) {
    std::cerr << "prestage: `trace info` needs --trace FILE\n";
    return 2;
  }
  const workload::TraceFormat format = resolve_trace_format(opt);

  JsonSink sink(opt.json_path);
  if (sink.failed()) return 1;
  JsonWriter json(sink.stream());

  if (format == workload::TraceFormat::Native) {
    // One buffered streaming pass: the record vector is never
    // materialized, so info stays O(buffer) even for very large traces.
    std::uint64_t streams = 0;
    const workload::TraceHeader header = workload::stream_trace_records(
        opt.trace_path, [&streams](const workload::DynInst& d) {
          if (d.ends_stream) ++streams;
        });
    if (!sink.owns_stdout()) {
      std::printf("trace       : %s (native, version %u)\n",
                  opt.trace_path.c_str(), header.version);
      std::printf("benchmark   : %s (program seed %llu, trace seed %llu)\n",
                  header.benchmark.c_str(),
                  static_cast<unsigned long long>(header.program_seed),
                  static_cast<unsigned long long>(header.trace_seed));
      std::printf("records     : %llu instructions in %llu streams\n",
                  static_cast<unsigned long long>(header.record_count),
                  static_cast<unsigned long long>(streams));
    }
    if (sink.wanted()) {
      json.begin_object();
      json.field("schema", "prestage-trace-info-v1");
      json.field("path", opt.trace_path);
      json.field("format", "native");
      json.field("version", header.version);
      json.field("benchmark", header.benchmark);
      json.field("program_seed", header.program_seed);
      json.field("trace_seed", header.trace_seed);
      json.field("records", header.record_count);
      json.field("streams", streams);
      json.end_object();
      if (!sink.finish()) return 1;
    }
    return 0;
  }

  workload::ChampSimImportStats st;
  const auto spec =
      workload::import_champsim_trace(opt.trace_path, opt.max_records, &st);
  if (!sink.owns_stdout()) {
    std::printf("trace       : %s (champsim)\n", opt.trace_path.c_str());
    std::printf("records     : %llu instructions in %llu streams\n",
                static_cast<unsigned long long>(st.records),
                static_cast<unsigned long long>(st.streams));
    std::printf("static      : %llu PCs (%llu branches, %llu loads, "
                "%llu stores, %llu synthetic jumps)\n",
                static_cast<unsigned long long>(st.unique_pcs),
                static_cast<unsigned long long>(st.branches),
                static_cast<unsigned long long>(st.loads),
                static_cast<unsigned long long>(st.stores),
                static_cast<unsigned long long>(st.synthetic_jumps));
    std::printf("image       : %zu blocks, %s footprint\n",
                spec->program().blocks.size(),
                fmt_bytes(spec->program().footprint_bytes()).c_str());
  }
  if (sink.wanted()) {
    json.begin_object();
    json.field("schema", "prestage-trace-info-v1");
    json.field("path", opt.trace_path);
    json.field("format", "champsim");
    json.field("records", st.records);
    json.field("streams", st.streams);
    json.field("unique_pcs", st.unique_pcs);
    json.field("branches", st.branches);
    json.field("loads", st.loads);
    json.field("stores", st.stores);
    json.field("synthetic_jumps", st.synthetic_jumps);
    json.field("image_blocks",
               static_cast<std::uint64_t>(spec->program().blocks.size()));
    json.field("image_bytes", spec->program().footprint_bytes());
    json.end_object();
    if (!sink.finish()) return 1;
  }
  return 0;
}

int cmd_list(const Options&) {
  std::cout << "prefetchers (composable: <prefetcher>[+l0][+ideal]"
               "[+pipelined][+pb<N>][@node]; storage at the default "
               "composition):\n";
  for (const auto& info :
       prefetch::PrefetcherRegistry::instance().entries()) {
    cpu::MachineConfig probe_cfg;
    probe_cfg.prefetcher = info.name;
    std::printf("  %-12s %8llu bits  %s\n", info.name.c_str(),
                static_cast<unsigned long long>(
                    prefetch::probe_storage_bits(probe_cfg)),
                info.description.c_str());
  }
  std::cout << "presets:\n";
  for (const std::string& name : sim::all_presets()) {
    std::printf("  %-16s %s\n", name.c_str(),
                sim::preset_label(name).c_str());
  }
  std::cout << "nodes:\n  180 130 090 065 045\n";
  std::cout << "benchmarks:\n ";
  for (const auto name : workload::benchmark_names()) {
    std::cout << ' ' << name;
  }
  std::cout << '\n';
  std::cout << "campaigns:\n";
  for (const auto& spec : figures::all_campaigns()) {
    std::printf("  %-8s %zu points  %s\n", spec.name.c_str(),
                spec.point_count(), spec.title.c_str());
  }
  return 0;
}

}  // namespace prestage::cli
