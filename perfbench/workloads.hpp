// The benchmark's workloads, as campaign grids.
//
// The grids are written out here instead of being read from the figure
// registry (bench/figures.cpp), so an edit to a figure grid cannot
// silently change what the benchmark measures. Every axis is literal:
// presets, nodes, L1 sizes, budgets and sampling knobs.
#pragma once

#include <cstdint>
#include <string_view>

#include "campaign/spec.hpp"

namespace perfbench {

/// The grid of workload @p name with CampaignSpec::seed = @p seed.
/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] prestage::campaign::CampaignSpec make_spec(
    std::string_view name, std::uint64_t seed);

}  // namespace perfbench
