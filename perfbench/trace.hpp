// The traced run: replays a campaign through the public calls of each
// layer, timing every call, then splits the kernel by unit on the
// shadow machine and times the workload layer's calls standalone.
//
// The replay does what campaign::run_campaign does — expand, load, one
// Cpu per full-run point (or a plan plus slices per sampled point) on
// the same number of workers, ordered store appends, compaction — but
// from outside, so each layer's share of the time can be seen. Its store
// must come out byte-identical to run_campaign's.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "campaign/spec.hpp"

namespace perfbench {

/// Named per-layer metrics, in print order.
using Metrics = std::vector<std::pair<std::string, double>>;

struct TracedRun {
  Metrics metrics;
  double wall_s = 0.0;  ///< the replay's wall time (expand to compaction)
};

/// Replays @p spec into a fresh store at @p store_path on @p jobs
/// workers and measures every layer. The shadow-machine unit split is
/// only made for full-run grids; on a mismatch against Cpu::run it
/// reports kernel.shadow_match = 0 and zeros for the unit times.
[[nodiscard]] TracedRun run_traced(const prestage::campaign::CampaignSpec& spec,
                                   const std::string& store_path,
                                   unsigned jobs);

}  // namespace perfbench
