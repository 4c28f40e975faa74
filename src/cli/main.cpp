// The unified `prestage` CLI: a single entry point for simulating the
// paper's configurations without editing any bench harness.
//
//   prestage run   --preset clgp-l0-pb16 --bench eon --instrs 200000
//   prestage suite --preset clgp-l0-pb16 --json out.json
//   prestage sweep --preset fdp-l0 --sizes 1K,4K,16K
//   prestage list
//   prestage trace record --bench eon --out eon.pstr
//   prestage trace replay --trace eon.pstr --preset clgp-l0-pb16
//   prestage trace info   --trace server.champsim.trace
//   prestage campaign run --name fig5 -j 4
//   prestage campaign report --name fig5
//
// All subcommands honour PRESTAGE_INSTRS when --instrs is absent, like
// the bench harnesses, and emit machine-readable JSON via --json (a file
// path, or `-` for stdout).
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string_view>

#include "cli/commands.hpp"
#include "cli/options.hpp"
#include "common/faultpoint.hpp"

namespace {

void print_usage(std::ostream& out) {
  out << "usage: prestage <command> [flags]\n"
         "\n"
         "commands:\n"
         "  run    simulate one benchmark and print headline statistics\n"
         "  suite  run the benchmark suite; report per-benchmark IPC + "
         "HMEAN\n"
         "  sweep  sweep L1 I-cache sizes; report HMEAN IPC per size\n"
         "  list   list presets, tech nodes and benchmarks\n"
         "  trace  record | replay | info — capture a run to a trace "
         "file,\n"
         "         replay a trace (native or raw ChampSim) through any\n"
         "         preset, or inspect a trace file\n"
         "  sample  profile | plan | run — phase-profile a workload into\n"
         "         interval BBVs, cluster them into a sampling plan\n"
         "         (optionally saved as a PSCK checkpoint with --out), or\n"
         "         run one sampled point and reconstruct whole-run\n"
         "         statistics with an error bar\n"
         "  campaign  run | resume | status | compare | report | perf |\n"
         "         perf compare — execute a declarative figure grid "
         "against\n"
         "         a resumable JSONL store (`prestage list` names the\n"
         "         campaigns), check its coverage, diff two stores for "
         "IPC\n"
         "         regressions, emit the BENCH_<name>.json figure "
         "report\n"
         "         and print its chart,\n"
         "         emit the BENCH_perf.json host-throughput report (from\n"
         "         the store's .perf sidecar, or measured fresh with\n"
         "         --min-host-seconds), or gate host throughput against "
         "a\n"
         "         committed BENCH_perf.json baseline (exit 3 on "
         "regression)\n"
         "  faults  list — enumerate the fault-injection sites compiled\n"
         "         into the I/O and execution paths, and what\n"
         "         PRESTAGE_FAULTS currently arms (spec grammar:\n"
         "         site:action[@trigger],... — see the README)\n"
         "\n"
         "flags:\n"
         "  --preset SPEC   machine composition: a named preset\n"
         "                  (clgp-l0-pb16) or <prefetcher>[+l0][+ideal]\n"
         "                  [+pipelined][+pb<N>][@node] over the registered\n"
         "                  prefetchers — `prestage list` names both\n"
         "                  (default clgp-l0-pb16)\n"
         "  --node NODE     tech node: 180|130|090|065|045 (default 045)\n"
         "  --l1 BYTES      L1 I-cache size, power of two, K/M suffixes ok "
         "(default 4096)\n"
         "  --bench LIST    benchmark name(s), comma separated\n"
         "  --sizes LIST    sweep sizes, comma separated (default paper "
         "axis)\n"
         "  --instrs N      instructions per run (default "
         "$PRESTAGE_INSTRS or 120000)\n"
         "  --json PATH     write a JSON report to PATH (`-` = stdout)\n"
         "  --jobs N, -j N  worker threads (0 = all cores; default 0)\n"
         "\n"
         "trace flags:\n"
         "  --out PATH      trace record: output trace file\n"
         "  --trace PATH    trace replay/info: input trace file\n"
         "  --format F      auto|native|champsim (default: sniff the "
         "file)\n"
         "  --max-records N cap on imported ChampSim records (default "
         "all)\n"
         "  --intervals N   trace info: N-interval BBV phase-similarity "
         "summary\n"
         "\n"
         "sample flags:\n"
         "  --interval N    BBV interval length in instructions (default\n"
         "                  budget/40, clamped)\n"
         "  --dim N         projected BBV dimension (default 16)\n"
         "  --max-k N       k-means cluster cap (default 6)\n"
         "  --warm-lines N  checkpoint warm-up window in cache lines "
         "(default 256)\n"
         "  --warmup N      detailed warm-up depth in intervals (default "
         "1)\n"
         "  --out FILE      sample plan: write a PSCK checkpoint\n"
         "  --plan FILE     sample run: execute a saved PSCK checkpoint\n"
         "\n"
         "campaign flags:\n"
         "  --name NAME     campaign from the registry (see `prestage "
         "list`)\n"
         "  --store PATH    result store (default campaigns/<name>.jsonl;"
         "\n"
         "                  compare: the candidate store)\n"
         "  --baseline PATH compare: the reference store\n"
         "  --threshold PCT compare: regression bound in percent "
         "(default 2)\n"
         "  --out PATH      report: output file (default "
         "BENCH_<name>.json)\n"
         "  --min-host-seconds S\n"
         "                  perf / perf compare: measure the grid fresh "
         "(in\n"
         "                  memory, repeated passes) until S host-seconds\n"
         "                  accumulate (perf compare default: 1)\n"
         "  --slack PCT     perf compare: allowed Minstr/s drop before a\n"
         "                  config counts as regressed (default 20)\n"
         "\n"
         "fault-tolerance flags (campaign run/resume):\n"
         "  --retries N     extra attempts per failing point before it "
         "is\n"
         "                  quarantined to <store>.failures (default 1)\n"
         "  --strict        fail fast on the first point error (no "
         "retry,\n"
         "                  no quarantine; restores pre-quarantine "
         "behaviour)\n"
         "  --durable       fsync the store and its sidecars after "
         "every\n"
         "                  appended line (crash-safe, slower)\n"
         "  --point-budget S\n"
         "                  per-point host-seconds watchdog budget; a "
         "point\n"
         "                  exceeding it is cancelled and quarantined\n"
         "  --help          this message\n"
         "\n"
         "exit codes: 0 ok, 1 runtime error, 2 usage, 3 regression "
         "found,\n"
         "            4 campaign completed with quarantined points\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace prestage::cli;

  // Arm fault injection before anything touches a faultable path. A
  // malformed spec is a usage error: failing loudly here beats running
  // a chaos campaign that silently injects nothing.
  if (const char* spec = std::getenv("PRESTAGE_FAULTS")) {
    const std::string error = prestage::faults::arm(spec);
    if (!error.empty()) {
      std::cerr << "prestage: bad PRESTAGE_FAULTS: " << error << "\n";
      return 2;
    }
  }

  if (argc < 2) {
    print_usage(std::cerr);
    return 2;
  }
  const std::string_view command = argv[1];
  if (command == "--help" || command == "-h" || command == "help") {
    print_usage(std::cout);
    return 0;
  }

  if (command == "trace") {
    if (argc < 3) {
      std::cerr << "prestage: `trace` needs a subcommand "
                   "(record | replay | info)\n\n";
      print_usage(std::cerr);
      return 2;
    }
    const std::string_view sub = argv[2];
    if (sub == "--help" || sub == "-h" || sub == "help") {
      print_usage(std::cout);
      return 0;
    }
    const ParseResult parsed = parse_options(argc, argv, 3);
    if (parsed.help) {
      print_usage(std::cout);
      return 0;
    }
    if (!parsed.error.empty()) {
      std::cerr << "prestage: " << parsed.error << "\n\n";
      print_usage(std::cerr);
      return 2;
    }
    try {
      if (sub == "record") return cmd_trace_record(parsed.options);
      if (sub == "replay") return cmd_trace_replay(parsed.options);
      if (sub == "info") return cmd_trace_info(parsed.options);
    } catch (const std::exception& e) {
      std::cerr << "prestage: " << e.what() << "\n";
      return 1;
    }
    std::cerr << "prestage: unknown trace subcommand '" << sub << "'\n\n";
    print_usage(std::cerr);
    return 2;
  }

  if (command == "sample") {
    if (argc < 3) {
      std::cerr << "prestage: `sample` needs a subcommand "
                   "(profile | plan | run)\n\n";
      print_usage(std::cerr);
      return 2;
    }
    const std::string_view sub = argv[2];
    if (sub == "--help" || sub == "-h" || sub == "help") {
      print_usage(std::cout);
      return 0;
    }
    const ParseResult parsed = parse_options(argc, argv, 3);
    if (parsed.help) {
      print_usage(std::cout);
      return 0;
    }
    if (!parsed.error.empty()) {
      std::cerr << "prestage: " << parsed.error << "\n\n";
      print_usage(std::cerr);
      return 2;
    }
    try {
      if (sub == "profile") return cmd_sample_profile(parsed.options);
      if (sub == "plan") return cmd_sample_plan(parsed.options);
      if (sub == "run") return cmd_sample_run(parsed.options);
    } catch (const std::exception& e) {
      std::cerr << "prestage: " << e.what() << "\n";
      return 1;
    }
    std::cerr << "prestage: unknown sample subcommand '" << sub << "'\n\n";
    print_usage(std::cerr);
    return 2;
  }

  if (command == "campaign") {
    if (argc < 3) {
      std::cerr << "prestage: `campaign` needs a subcommand "
                   "(run | resume | status | compare | report | perf)\n\n";
      print_usage(std::cerr);
      return 2;
    }
    const std::string_view sub = argv[2];
    if (sub == "--help" || sub == "-h" || sub == "help") {
      print_usage(std::cout);
      return 0;
    }
    // `campaign perf compare` is the one two-word subcommand: the gate
    // variant of `perf`, so its flags start one word later.
    const bool perf_compare =
        sub == "perf" && argc > 3 && std::string_view(argv[3]) == "compare";
    const ParseResult parsed = parse_options(argc, argv, perf_compare ? 4 : 3);
    if (parsed.help) {
      print_usage(std::cout);
      return 0;
    }
    if (!parsed.error.empty()) {
      std::cerr << "prestage: " << parsed.error << "\n\n";
      print_usage(std::cerr);
      return 2;
    }
    try {
      if (sub == "run") return cmd_campaign_run(parsed.options, false);
      if (sub == "resume") return cmd_campaign_run(parsed.options, true);
      if (sub == "status") return cmd_campaign_status(parsed.options);
      if (sub == "compare") return cmd_campaign_compare(parsed.options);
      if (sub == "report") return cmd_campaign_report(parsed.options);
      if (perf_compare) return cmd_campaign_perf_compare(parsed.options);
      if (sub == "perf") return cmd_campaign_perf(parsed.options);
    } catch (const std::exception& e) {
      std::cerr << "prestage: " << e.what() << "\n";
      return 1;
    }
    std::cerr << "prestage: unknown campaign subcommand '" << sub
              << "'\n\n";
    print_usage(std::cerr);
    return 2;
  }

  if (command == "faults") {
    if (argc < 3) {
      std::cerr << "prestage: `faults` needs a subcommand (list)\n\n";
      print_usage(std::cerr);
      return 2;
    }
    const std::string_view sub = argv[2];
    if (sub == "--help" || sub == "-h" || sub == "help") {
      print_usage(std::cout);
      return 0;
    }
    const ParseResult parsed = parse_options(argc, argv, 3);
    if (parsed.help) {
      print_usage(std::cout);
      return 0;
    }
    if (!parsed.error.empty()) {
      std::cerr << "prestage: " << parsed.error << "\n\n";
      print_usage(std::cerr);
      return 2;
    }
    try {
      if (sub == "list") return cmd_faults_list(parsed.options);
    } catch (const std::exception& e) {
      std::cerr << "prestage: " << e.what() << "\n";
      return 1;
    }
    std::cerr << "prestage: unknown faults subcommand '" << sub << "'\n\n";
    print_usage(std::cerr);
    return 2;
  }

  const ParseResult parsed = parse_options(argc, argv, 2);
  if (parsed.help) {
    print_usage(std::cout);
    return 0;
  }
  if (!parsed.error.empty()) {
    std::cerr << "prestage: " << parsed.error << "\n\n";
    print_usage(std::cerr);
    return 2;
  }

  try {
    if (command == "run") return cmd_run(parsed.options);
    if (command == "suite") return cmd_suite(parsed.options);
    if (command == "sweep") return cmd_sweep(parsed.options);
    if (command == "list") return cmd_list(parsed.options);
  } catch (const std::exception& e) {
    std::cerr << "prestage: " << e.what() << "\n";
    return 1;
  }

  std::cerr << "prestage: unknown command '" << command << "'\n\n";
  print_usage(std::cerr);
  return 2;
}
