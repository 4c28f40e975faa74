// Front-end design-space explorer: the scenario the paper's introduction
// motivates — an architect choosing an instruction-supply organisation
// for a deeply-scaled technology node. Sweeps the configurations across
// L1 sizes for a chosen benchmark and node and prints the IPC matrix.
//
//   ./frontend_explorer [benchmark] [node: 90|45] [instructions]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "campaign/engine.hpp"
#include "campaign/report.hpp"
#include "sim/presets.hpp"
#include "sim/report.hpp"

int main(int argc, char** argv) {
  using namespace prestage;
  using namespace prestage::sim;

  const std::string benchmark = argc > 1 ? argv[1] : "gcc";
  const bool node90 = argc > 2 && std::string(argv[2]) == "90";
  const auto node =
      node90 ? cacti::TechNode::um090 : cacti::TechNode::um045;
  const std::uint64_t instructions =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 60000;

  const auto& sizes = paper_l1_sizes();

  // All (preset, size) runs are independent: run them as one campaign
  // grid in memory and read the matrix back out of it.
  campaign::CampaignSpec spec;
  spec.presets = {"base",   "base-pipelined", "base-l0",
                  "fdp-l0", "clgp-l0",        "clgp-l0-pb16"};
  spec.nodes = {node};
  spec.l1_sizes = sizes;
  spec.benchmarks = {benchmark};
  spec.instructions = instructions;
  const campaign::ResultStore store = campaign::run_in_memory(spec);
  const campaign::ResultGrid grid(spec, store);

  std::vector<Series> series;
  for (const std::string& p : spec.presets) {
    Series s;
    s.label = preset_label(p);
    for (const std::uint64_t size : sizes) {
      s.values.push_back(grid.at(p, node, size, benchmark)->result.ipc);
    }
    series.push_back(std::move(s));
  }
  std::printf("%s\n",
              render_size_chart("Front-end design space: " + benchmark +
                                    " at " +
                                    std::string(cacti::to_string(node)),
                                sizes, series)
                  .c_str());

  // Point the architect at the cheapest configuration within 2% of the
  // best observed IPC.
  double best = 0.0;
  for (const auto& s : series) {
    for (const double v : s.values) best = std::max(best, v);
  }
  for (std::size_t k = 0; k < sizes.size(); ++k) {  // smallest L1 first
    for (std::size_t si = 0; si < series.size(); ++si) {
      if (series[si].values[k] >= 0.98 * best) {
        std::printf("smallest L1 within 2%% of best (%.3f): %s with a %s "
                    "L1 (IPC %.3f)\n",
                    best, series[si].label.c_str(),
                    fmt_bytes(sizes[k]).c_str(), series[si].values[k]);
        return 0;
      }
    }
  }
  return 0;
}
