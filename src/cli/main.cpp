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
// path, or `-` for stdout). Each command names the flags it reads; any
// other flag is a usage error, never silently dropped.
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

using Handler = int (*)(const Options&);

/// One command: a top-level word (empty group) or a group's subcommand.
struct Command {
  std::string_view group;
  std::string_view name;
  Handler run;
  /// The flags the handler and the helpers it calls read, space
  /// separated. Any other flag is refused as a usage error.
  std::string_view reads;
};

int campaign_run(const Options& opt) { return cmd_campaign_run(opt, false); }
int campaign_resume(const Options& opt) { return cmd_campaign_run(opt, true); }

constexpr std::string_view kCampaignRunFlags =
    "--name --instrs --store --json --jobs --retries --strict --durable "
    "--point-budget";

// A profile and a plan are functions of the workload, seed, budget and
// sampling knobs: the machine flags (--preset, --node, --l1) would change
// nothing, so those two commands refuse them.
constexpr Command kCommands[] = {
    {"", "run", cmd_run, "--preset --node --l1 --bench --instrs --json"},
    {"", "suite", cmd_suite,
     "--preset --node --l1 --bench --instrs --json --jobs"},
    {"", "sweep", cmd_sweep,
     "--preset --node --bench --sizes --instrs --json --jobs"},
    {"", "list", cmd_list, ""},
    {"trace", "record", cmd_trace_record,
     "--preset --node --l1 --bench --instrs --json --out"},
    {"trace", "replay", cmd_trace_replay,
     "--preset --node --l1 --instrs --json --trace --format --max-records"},
    {"trace", "info", cmd_trace_info, "--trace --format --max-records --json"},
    {"sample", "profile", cmd_sample_profile,
     "--bench --instrs --json --trace --format --max-records --interval "
     "--dim --max-k --warm-lines --warmup"},
    {"sample", "plan", cmd_sample_plan,
     "--bench --instrs --json --trace --format --max-records --interval "
     "--dim --max-k --warm-lines --warmup --out"},
    {"sample", "run", cmd_sample_run,
     "--preset --node --l1 --bench --instrs --json --trace --format "
     "--max-records --interval --dim --max-k --warm-lines --warmup --plan"},
    {"campaign", "run", campaign_run, kCampaignRunFlags},
    {"campaign", "resume", campaign_resume, kCampaignRunFlags},
    {"campaign", "status", cmd_campaign_status,
     "--name --instrs --store --json"},
    {"campaign", "compare", cmd_campaign_compare,
     "--baseline --store --threshold --json"},
    {"campaign", "report", cmd_campaign_report,
     "--name --instrs --store --out"},
    {"faults", "list", cmd_faults_list, "--json"},
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
  ParseResult parsed = parse_options(argc, argv, first);
  if (parsed.help) {
    print_usage(std::cout);
    return 0;
  }
  // Once every value has parsed, a flag the command would drop is refused.
  const std::string reads = " " + std::string(command->reads) + " ";
  for (const std::string_view flag : parsed.given) {
    if (parsed.error.empty() &&
        reads.find(" " + std::string(flag) + " ") == std::string::npos) {
      parsed.error = "'" + std::string(group) + (group.empty() ? "" : " ") +
                     std::string(name) + "' does not read " +
                     std::string(flag);
    }
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
