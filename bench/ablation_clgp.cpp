// Ablation study of CLGP's design decisions (an extension beyond the
// paper; the prefetch-buffer behaviours it swaps in are those of
// src/prefetch/prefetch_buffer.hpp): starting from the paper's CLGP+L0 at
// a 4 KB L1 / 0.045um, each row turns one mechanism off (or swaps in a
// related-work alternative) to measure what it contributes:
//   * consumers counter  -> free-on-first-use replacement (prefetch-buffer
//     style), isolating the lifetime-management contribution;
//   * no-filtering       -> FDP-style cache-probe filtering added;
//   * no-replication     -> used lines promoted to L0/L1 (classic buffer);
//   * CLTQ granularity   -> FDP (FTQ blocks) as the whole-design swap;
//   * next-2-line        -> sequential prefetching baseline (§2.1).
//
// Each CLGP variant is a scheme registered in this process only, built by
// core::build_clgp with its knobs set, so the eight rows are one campaign
// grid run through the engine in memory.
#include <cstdio>
#include <utility>

#include "campaign/engine.hpp"
#include "campaign/report.hpp"
#include "core/clgp.hpp"
#include "sim/report.hpp"

int main() {
  using namespace prestage;
  const auto node = cacti::TechNode::um045;
  constexpr std::uint64_t kL1 = 4096;

  const auto add_clgp = [](const char* name, core::ClgpConfig knobs) {
    prefetch::PrefetcherRegistry::instance().add(
        {.name = name,
         .label = name,
         .description = "CLGP ablation variant",
         .build = [knobs](const prefetch::BuildInputs& in) {
           return core::build_clgp(in, knobs);
         }});
  };
  add_clgp("clgp-no-consumers", {.disable_consumers = true});
  add_clgp("clgp-filtered", {.filter_resident = true});
  add_clgp("clgp-transfer", {.transfer_on_use = true});
  add_clgp("clgp-reversed", {.disable_consumers = true,
                             .filter_resident = true,
                             .transfer_on_use = true});

  const std::pair<const char*, const char*> variants[] = {
      {"CLGP+L0 (paper)", "clgp-l0"},
      {"  - consumers counter", "clgp-no-consumers-l0"},
      {"  + cache-probe filtering", "clgp-filtered-l0"},
      {"  + transfer-on-use", "clgp-transfer-l0"},
      {"  all three reversed", "clgp-reversed-l0"},
      {"FDP+L0 (FTQ granularity)", "fdp-l0"},
      {"next-2-line + L0", "next-line-l0"},
      {"base+L0 (no prefetch)", "base-l0"},
  };
  campaign::CampaignSpec spec;
  spec.name = "ablation";
  spec.title = "CLGP ablations (4KB L1, 0.045um)";
  for (const auto& [label, preset] : variants) spec.presets.push_back(preset);
  spec.nodes = {node};
  spec.l1_sizes = {kL1};
  const campaign::ResultStore store = campaign::run_in_memory(spec);
  const campaign::ResultGrid grid(spec, store);

  Table t({"variant", "HMEAN IPC", "vs CLGP+L0", "PB fetch share"});
  const double clgp_ipc = grid.hmean_ipc("clgp-l0", node, kL1);
  for (const auto& [label, preset] : variants) {
    const double hmean = grid.hmean_ipc(preset, node, kL1);
    const SourceBreakdown sources =
        grid.sources(&cpu::RunResult::fetch_sources, preset, node, kL1);
    t.add_row({label, fmt(hmean, 3),
               fmt(sim::speedup_pct(hmean, clgp_ipc), 1) + "%",
               fmt_pct(sources.fraction(FetchSource::PreBuffer))});
  }
  std::printf("== %s ==\n%s\n", spec.title.c_str(), t.to_text().c_str());
  return 0;
}
