// Reproduces paper Figure 5 (a: 0.09um, b: 0.045um): HMEAN IPC vs L1
// size for the six headline configurations, plus the §5.1 speedup claims
// at a 4 KB L1 and the 6.4x cache-budget equivalence example. The grid
// is the "fig5" campaign in bench/figures.cpp; this main adds the
// headline analysis on top of the shared grid.
#include <cstdio>
#include <iostream>

#include "bench/figures.hpp"
#include "sim/report.hpp"

using namespace prestage;
using campaign::ResultGrid;

namespace {

void headline(const ResultGrid& grid, cacti::TechNode node,
              const char* node_name, double paper_vs_fdp,
              double paper_vs_pipe) {
  const auto at = [&](const std::string& p) {
    return grid.hmean_ipc(p, node, 4096);
  };
  const double clgp = at("clgp-l0-pb16");
  const double fdp = at("fdp-l0-pb16");
  const double pipe = at("base-pipelined");
  std::printf(
      "Headline speedups at 4KB L1, %s (paper values in brackets):\n"
      "  CLGP+L0+PB:16 over FDP+L0+PB:16 : %+.1f%%  [paper %+.1f%%]\n"
      "  CLGP+L0+PB:16 over base pipelined: %+.1f%%  [paper %+.1f%%]\n"
      "  CLGP+L0 over FDP+L0             : %+.1f%%\n"
      "  CLGP+L0 over base+L0            : %+.1f%%\n\n",
      node_name, sim::speedup_pct(clgp, fdp), paper_vs_fdp,
      sim::speedup_pct(clgp, pipe), paper_vs_pipe,
      sim::speedup_pct(at("clgp-l0"), at("fdp-l0")),
      sim::speedup_pct(at("clgp-l0"), at("base-l0")));
}

void budget_claim(const ResultGrid& grid) {
  // §5.1: CLGP with L0 + 16-entry pipelined PB + 1KB L1 (~2.5KB budget)
  // vs a 16KB pipelined L1 without prefetching (6.4x the budget).
  const double clgp_small =
      grid.hmean_ipc("clgp-l0-pb16", cacti::TechNode::um090, 1024);
  const double pipe_16k =
      grid.hmean_ipc("base-pipelined", cacti::TechNode::um090, 16384);
  std::printf(
      "Budget equivalence at 0.09um (paper §5.1):\n"
      "  CLGP+L0+PB:16 with 1KB L1 (2.5KB budget): IPC %.3f\n"
      "  base pipelined with 16KB L1 (6.4x budget): IPC %.3f\n"
      "  CLGP with 1/6.4th the budget is %s\n\n",
      clgp_small, pipe_16k,
      clgp_small >= pipe_16k ? "at least as fast (claim holds)"
                             : "slower (claim does not hold here)");
}

}  // namespace

int main() {
  const campaign::CampaignSpec& spec = *figures::find("fig5");
  const campaign::ResultStore store = campaign::run_in_memory(
      spec, 0, figures::stream_progress(spec, std::cerr));
  const ResultGrid grid(spec, store);
  std::fputs(figures::render_text(grid).c_str(), stdout);

  headline(grid, cacti::TechNode::um090, "0.09um", 3.5, 39.0);
  budget_claim(grid);
  headline(grid, cacti::TechNode::um045, "0.045um", 12.5, 48.0);
  return 0;
}
