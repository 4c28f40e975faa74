// Registry of the paper's figure grids as declarative campaigns.
//
// Each figure the paper plots (Figures 1/2/4/5/6/7/8) is one
// CampaignSpec here, and the `prestage campaign` CLI subcommands
// resolve campaigns from this registry, so a figure is defined exactly
// once. fig5 and fig6 also carry the claims the paper reads off them
// (§5.1's speedups and budget example, Figure 6's per-benchmark wins),
// which `campaign report` measures. A small "smoke" grid rides along
// for CI and tests (2 presets x 2 sizes x 2 benchmarks), plus its
// phase-sampled twin "smoke-sampled" that CI diffs against it.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "campaign/report.hpp"
#include "campaign/spec.hpp"

namespace prestage::figures {

/// All built-in campaigns, figure order then "smoke"/"smoke-sampled".
[[nodiscard]] const std::vector<campaign::CampaignSpec>& all_campaigns();

/// Lookup by campaign name ("fig5", "smoke", ...); nullptr if unknown.
[[nodiscard]] const campaign::CampaignSpec* find(std::string_view name);

/// Renders the paper's text charts (tables + CSV blocks) for the
/// campaign's ReportKind from a complete grid, then a table of the
/// spec's claims when it has any; what `campaign report` prints.
[[nodiscard]] std::string render_text(const campaign::ResultGrid& grid);

}  // namespace prestage::figures
