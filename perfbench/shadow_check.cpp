// shadow_check: proves the shadow machine reproduces Cpu::run, so the
// unit split the traced run prints times the production kernel.
//
//   shadow_check [JOBS]
//
// Every registered preset, at both grid nodes and two L1 sizes, on a
// loop-heavy and a stall-heavy benchmark, at a short budget: the shadow
// must match Cpu::run (cycle skip on) on cycles, committed instructions,
// fetch- and prefetch-source counts, lines fetched, recoveries and L2
// hits/misses. Exits 0 when every point matches, 1 otherwise.
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <string>
#include <vector>

#include "campaign/spec.hpp"
#include "common/parallel.hpp"
#include "cpu/cpu.hpp"
#include "shadow.hpp"
#include "sim/presets.hpp"

int main(int argc, char** argv) {
  using namespace prestage;
  const unsigned jobs =
      argc > 1 ? static_cast<unsigned>(std::strtoul(argv[1], nullptr, 10)) : 0;

  campaign::CampaignSpec spec;
  spec.name = "shadow-check";
  spec.presets = sim::all_presets();
  spec.nodes = {cacti::TechNode::um090, cacti::TechNode::um045};
  spec.l1_sizes = {1024, 4096};
  spec.benchmarks = {"gcc", "mcf"};
  spec.instructions = 20000;
  const std::vector<campaign::RunPoint> points = campaign::expand(spec);

  std::mutex mutex;  // guards mismatched and std::cerr
  std::size_t mismatched = 0;
  parallel_for_indexed(points.size(), jobs, [&](std::size_t i) {
    const cpu::MachineConfig cfg = points[i].machine_config();
    cpu::Cpu machine(cfg);
    const cpu::RunResult real = machine.run();
    const perfbench::ShadowRun shadow = perfbench::run_shadow(cfg);
    if (perfbench::matches(shadow, real)) return;
    const std::lock_guard<std::mutex> lock(mutex);
    ++mismatched;
    std::cerr << "shadow mismatch: " << points[i].descriptor() << " (cycles "
              << shadow.cycles << " vs " << real.cycles << ")\n";
  });
  std::cout << "shadow_check: " << points.size() - mismatched << '/'
            << points.size() << " points match Cpu::run across "
            << spec.presets.size() << " presets\n";
  return mismatched == 0 ? 0 : 1;
}
