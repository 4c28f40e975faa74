#include "workloads.hpp"

#include <stdexcept>
#include <string>

namespace perfbench {

using prestage::cacti::TechNode;
using prestage::campaign::CampaignSpec;

CampaignSpec make_spec(std::string_view name, std::uint64_t seed) {
  CampaignSpec spec;
  spec.name = "perfbench-" + std::string(name);
  spec.seed = seed;
  spec.benchmarks = {"gzip",    "vpr", "gcc",    "mcf",   "crafty", "parser",
                     "eon",     "perlbmk", "gap", "vortex", "bzip2", "twolf"};
  if (name == "steady") {
    // Few long, kernel-bound points: no prefetch, FDP and CLGP.
    spec.presets = {"base-pipelined", "fdp-l0-pb16", "clgp-l0-pb16"};
    spec.nodes = {TechNode::um045};
    spec.l1_sizes = {4096};
    spec.instructions = 1000000;
  } else if (name == "fig5-grid") {
    // The paper's Figure 5 shape at a short budget: 1296 tiny points,
    // dominated by machine construction and the store.
    spec.presets = {"clgp-l0-pb16", "clgp-l0",        "fdp-l0-pb16",
                    "fdp-l0",       "base-pipelined", "base-l0"};
    spec.nodes = {TechNode::um090, TechNode::um045};
    spec.l1_sizes = {256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536};
    spec.instructions = 2000;
  } else if (name == "sampled") {
    // Phase-sampled estimates of 10M-instruction runs: profiling,
    // clustering and many short cold slices. One L1 size keeps a run
    // near 3 s, so several runs fit in one measurement window; each
    // plan still serves both presets through the plan cache.
    spec.presets = {"base-pipelined", "clgp-l0-pb16"};
    spec.nodes = {TechNode::um045};
    spec.l1_sizes = {1024};
    spec.instructions = 10000000;
    spec.sampling.enabled = true;
    spec.sampling.interval_instructions = 50000;
    spec.sampling.dim = 16;
    spec.sampling.max_clusters = 2;
    spec.sampling.warm_lines = 256;
    spec.sampling.warmup_intervals = 1;
  } else {
    throw std::invalid_argument("unknown workload '" + std::string(name) +
                                "'");
  }
  return spec;
}

}  // namespace perfbench
