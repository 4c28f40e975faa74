// Reproduces paper Figure 6: per-benchmark IPC with an 8 KB L1 at 0.045um
// for the best configurations, plus the harmonic mean bar. The grid is
// the "fig6" campaign in bench/figures.cpp; this main adds the
// CLGP-vs-FDP win count the paper calls out.
#include <cstdio>
#include <iostream>

#include "bench/figures.hpp"

using namespace prestage;

int main() {
  const campaign::CampaignSpec& spec = *figures::find("fig6");
  const campaign::ResultStore store = campaign::run_in_memory(
      spec, 0, figures::stream_progress(spec, std::cerr));
  const campaign::ResultGrid grid(spec, store);
  std::fputs(figures::render_text(grid).c_str(), stdout);

  const auto node = cacti::TechNode::um045;
  constexpr std::uint64_t kL1 = 8192;
  int clgp_wins = 0;
  for (const std::string& bench : grid.benchmarks()) {
    if (grid.at("clgp-l0-pb16", node, kL1, bench)->result.ipc >=
        grid.at("fdp-l0-pb16", node, kL1, bench)->result.ipc) {
      ++clgp_wins;
    }
  }
  std::printf("CLGP best-or-equal vs FDP on %d of %zu benchmarks "
              "(paper: all but gzip).\n",
              clgp_wins, grid.benchmarks().size());
  return 0;
}
