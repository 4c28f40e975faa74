// Registry of the paper's figure grids as declarative campaigns.
//
// Each figure the paper plots (Figures 1/2/4/5/6/7/8) is one
// CampaignSpec here; the `prestage campaign` CLI subcommands and the
// fig5/fig6 analysis mains both resolve campaigns from this registry,
// so a figure is defined exactly once. A small "smoke" grid rides along
// for CI and tests (2 presets x 2 sizes x 2 benchmarks), plus its
// phase-sampled twin "smoke-sampled" that CI diffs against it.
#pragma once

#include <iosfwd>
#include <string_view>
#include <vector>

#include "campaign/engine.hpp"
#include "campaign/report.hpp"
#include "campaign/spec.hpp"

namespace prestage::figures {

/// All built-in campaigns, figure order then "smoke"/"smoke-sampled".
[[nodiscard]] const std::vector<campaign::CampaignSpec>& all_campaigns();

/// Lookup by campaign name ("fig5", "smoke", ...); nullptr if unknown.
[[nodiscard]] const campaign::CampaignSpec* find(std::string_view name);

/// A Progress that prints "name: done/total points" lines to @p err at
/// roughly eighth-of-the-grid intervals; what the fig mains pass to
/// campaign::run_in_memory. The stream is a parameter so this stays
/// library-clean.
[[nodiscard]] campaign::Progress stream_progress(
    const campaign::CampaignSpec& spec, std::ostream& err);

/// Renders the paper's text charts (tables + CSV blocks) for the
/// campaign's ReportKind from a complete grid; what `campaign report`
/// prints.
[[nodiscard]] std::string render_text(const campaign::ResultGrid& grid);

}  // namespace prestage::figures
