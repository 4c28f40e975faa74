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
#include <algorithm>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <iterator>
#include <string>
#include <string_view>

#include "cli/commands.hpp"
#include "cli/options.hpp"
#include "common/faultpoint.hpp"

namespace {

using namespace prestage::cli;

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
         "  campaign  run | resume | status | compare | report — execute a\n"
         "         declarative figure grid against a resumable JSONL store\n"
         "         (`prestage list` names the campaigns), check its coverage,\n"
         "         diff two stores for IPC regressions, or emit the\n"
         "         BENCH_<name>.json figure report (with the host telemetry\n"
         "         of the store's .perf sidecar) and print its chart\n"
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
         "  --jobs N, -j N, -jN\n"
         "                  worker threads (0 = all cores; default 0)\n"
         "\n"
         "trace flags:\n"
         "  --out PATH      trace record: output trace file\n"
         "  --trace PATH    trace replay/info: input trace file\n"
         "  --format F      auto|native|champsim (default: sniff the "
         "file)\n"
         "  --max-records N cap on imported ChampSim records (default "
         "all)\n"
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

using Handler = int (*)(const Options&);

/// One command: a top-level word (empty group) or a group's subcommand.
struct Command {
  std::string_view group;
  std::string_view name;
  Handler run;
};

int campaign_run(const Options& opt) { return cmd_campaign_run(opt, false); }
int campaign_resume(const Options& opt) { return cmd_campaign_run(opt, true); }

constexpr Command kCommands[] = {
    {"", "run", cmd_run},
    {"", "suite", cmd_suite},
    {"", "sweep", cmd_sweep},
    {"", "list", cmd_list},
    {"trace", "record", cmd_trace_record},
    {"trace", "replay", cmd_trace_replay},
    {"trace", "info", cmd_trace_info},
    {"sample", "profile", cmd_sample_profile},
    {"sample", "plan", cmd_sample_plan},
    {"sample", "run", cmd_sample_run},
    {"campaign", "run", campaign_run},
    {"campaign", "resume", campaign_resume},
    {"campaign", "status", cmd_campaign_status},
    {"campaign", "compare", cmd_campaign_compare},
    {"campaign", "report", cmd_campaign_report},
    {"faults", "list", cmd_faults_list},
};

bool is_help(std::string_view word) {
  return word == "--help" || word == "-h" || word == "help";
}

bool is_group(std::string_view word) {
  return std::any_of(std::begin(kCommands), std::end(kCommands),
                     [word](const Command& c) { return c.group == word; });
}

const Command* find_command(std::string_view group, std::string_view name) {
  for (const Command& c : kCommands) {
    if (c.group == group && c.name == name) return &c;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
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
  std::string_view group;
  std::string_view name = argv[1];
  if (is_help(name)) {
    print_usage(std::cout);
    return 0;
  }
  int first = 2;  // argv index of the first flag
  if (is_group(name)) {
    group = name;
    if (argc < 3) {
      std::cerr << "prestage: `" << group << "` needs a subcommand (";
      const char* sep = "";
      for (const Command& c : kCommands) {
        if (c.group != group) continue;
        std::cerr << sep << c.name;
        sep = " | ";
      }
      std::cerr << ")\n\n";
      print_usage(std::cerr);
      return 2;
    }
    name = argv[2];
    if (is_help(name)) {
      print_usage(std::cout);
      return 0;
    }
    first = 3;
  }

  const Command* command = find_command(group, name);
  if (command == nullptr) {
    std::cerr << "prestage: unknown "
              << (group.empty() ? "command" : std::string(group) +
                                                  " subcommand")
              << " '" << name << "'\n\n";
    print_usage(std::cerr);
    return 2;
  }
  const ParseResult parsed = parse_options(argc, argv, first);
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
    return command->run(parsed.options);
  } catch (const std::exception& e) {
    std::cerr << "prestage: " << e.what() << "\n";
    return 1;
  }
}
