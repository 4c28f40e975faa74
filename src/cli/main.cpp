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
