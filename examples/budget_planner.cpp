// Cache-budget planner: reproduces the paper's §5.1 hardware-budget
// argument as a tool. Given a target technology node, it finds, for each
// configuration family, the smallest total cache budget (L1 + L0 +
// pre-buffer) that reaches a target fraction of the ideal IPC — showing
// how prestaging shrinks the budget a front-end needs (the paper's "same
// performance at 1/6.4th the budget" example).
//
//   ./budget_planner [node: 90|45] [target-fraction] [instructions]
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "campaign/engine.hpp"
#include "campaign/report.hpp"
#include "sim/presets.hpp"
#include "sim/report.hpp"

namespace {

using namespace prestage;
using namespace prestage::sim;

/// HMEAN IPC of one machine over @p suite: a one-cell campaign grid run
/// in memory.
double hmean_ipc(const std::string& preset, cacti::TechNode node,
                 std::uint64_t l1i_size,
                 const std::vector<std::string>& suite,
                 std::uint64_t instructions) {
  campaign::CampaignSpec spec;
  spec.presets = {preset};
  spec.nodes = {node};
  spec.l1_sizes = {l1i_size};
  spec.benchmarks = suite;
  spec.instructions = instructions;
  const campaign::ResultStore store = campaign::run_in_memory(spec);
  return campaign::ResultGrid(spec, store).hmean_ipc(preset, node, l1i_size);
}

std::uint64_t config_budget(const cpu::MachineConfig& cfg) {
  std::uint64_t budget = cfg.l1i_size;
  if (cfg.has_l0) {
    budget += cpu::DerivedTimings::from(cfg).l0_size;
  }
  if (cfg.prefetcher != cpu::kNoPrefetcher) {
    budget += static_cast<std::uint64_t>(cfg.prebuffer_entries) * 64;
  }
  return budget;
}

}  // namespace

int main(int argc, char** argv) {
  const bool node90 = argc > 1 && std::string(argv[1]) == "90";
  const auto node =
      node90 ? cacti::TechNode::um090 : cacti::TechNode::um045;
  const double target_frac = argc > 2 ? std::atof(argv[2]) : 0.95;
  const std::uint64_t instructions =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 50000;

  // A fetch-bound subset keeps the tool responsive; the full-suite sweep
  // is the fig5 campaign (`prestage campaign run --name fig5`).
  const std::vector<std::string> suite = {"eon", "vortex", "crafty", "gcc"};

  // Reference: ideal 1-cycle 64KB I-cache.
  const double ideal =
      hmean_ipc("base-ideal", node, 65536, suite, instructions);
  const double target = target_frac * ideal;
  std::printf("node %s: ideal-64KB IPC %.3f; target %.0f%% -> %.3f\n\n",
              std::string(cacti::to_string(node)).c_str(), ideal,
              100 * target_frac, target);

  Table t({"configuration", "smallest L1", "total budget", "IPC"});
  const char* families[] = {"base",        "base-pipelined",
                            "base-l0",     "fdp-l0",
                            "fdp-l0-pb16", "clgp-l0",
                            "clgp-l0-pb16"};
  std::uint64_t best_budget = ~0ULL;
  std::string best_name = "(none)";
  for (const char* family : families) {
    bool met = false;
    for (const std::uint64_t size : paper_l1_sizes()) {
      const double ipc = hmean_ipc(family, node, size, suite, instructions);
      if (ipc >= target) {
        const std::uint64_t budget =
            config_budget(make_config(family, node, size));
        t.add_row({preset_label(family), fmt_bytes(size),
                   fmt_bytes(budget), fmt(ipc, 3)});
        if (budget < best_budget) {
          best_budget = budget;
          best_name = preset_label(family);
        }
        met = true;
        break;
      }
    }
    if (!met) {
      t.add_row({preset_label(family), "-", "-", "target unmet"});
    }
  }
  std::printf("%s\nsmallest budget meeting the target: %s (%s)\n",
              t.to_text().c_str(), best_name.c_str(),
              best_budget == ~0ULL ? "-" : fmt_bytes(best_budget).c_str());
  return 0;
}
