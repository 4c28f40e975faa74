#include "bench/figures.hpp"

#include <optional>
#include <sstream>
#include <tuple>

#include "common/table.hpp"
#include "sim/report.hpp"

namespace prestage::figures {

using campaign::CampaignSpec;
using campaign::Claim;
using campaign::GridCell;
using campaign::ReportKind;
using campaign::ResultGrid;

const std::vector<CampaignSpec>& all_campaigns() {
  static const std::vector<CampaignSpec> campaigns = [] {
    std::vector<CampaignSpec> c;
    const std::vector<cacti::TechNode> far{cacti::TechNode::um045};
    const auto& sizes = sim::paper_l1_sizes();

    const auto make = [&c](std::string name, std::string title,
                           ReportKind kind,
                           std::vector<std::string> presets,
                           std::vector<cacti::TechNode> nodes,
                           std::vector<std::uint64_t> l1_sizes,
                           std::vector<std::string> benchmarks = {}) {
      CampaignSpec spec;
      spec.name = std::move(name);
      spec.title = std::move(title);
      spec.kind = kind;
      spec.presets = std::move(presets);
      spec.nodes = std::move(nodes);
      spec.l1_sizes = std::move(l1_sizes);
      spec.benchmarks = std::move(benchmarks);
      c.push_back(std::move(spec));
    };

    make("fig1", "Figure 1: L1 I-cache latency effect (0.045um, HMEAN IPC)",
         ReportKind::IpcVsSize,
         {"base-ideal", "base-pipelined", "base-l0", "base"}, far, sizes);
    make("fig2", "Figure 2(b): FDP with/without L0 (0.045um)",
         ReportKind::IpcVsSize, {"fdp-l0", "fdp"}, far, sizes);
    make("fig4", "Figure 4(b): CLGP with/without L0 (0.045um)",
         ReportKind::IpcVsSize, {"clgp-l0", "clgp"}, far, sizes);
    make("fig5", "Figure 5: HMEAN IPC vs L1 size, six configurations",
         ReportKind::IpcVsSize,
         {"clgp-l0-pb16", "clgp-l0", "fdp-l0-pb16", "fdp-l0",
          "base-pipelined", "base-l0"},
         {cacti::TechNode::um090, cacti::TechNode::um045}, sizes);
    // §5.1's speedups at a 4 KB L1 (the paper gives the first two at
    // each node), and its budget example at 0.09 um: CLGP+L0+PB:16 with
    // a 1 KB L1 (about 2.5 KB in all) at least as fast as a pipelined
    // 16 KB L1 without prefetching (6.4x the budget).
    for (const auto& [node, vs_fdp, vs_pipelined] :
         {std::tuple{cacti::TechNode::um090, 3.5, 39.0},
          std::tuple{cacti::TechNode::um045, 12.5, 48.0}}) {
      const auto at_4k = [n = node](const char* first, const char* second,
                                    std::optional<double> paper) {
        return Claim{.first = {first, n, 4096},
                     .second = {second, n, 4096},
                     .paper = paper};
      };
      std::vector<Claim>& claims = c.back().claims;
      claims.insert(claims.end(),
                    {at_4k("clgp-l0-pb16", "fdp-l0-pb16", vs_fdp),
                     at_4k("clgp-l0-pb16", "base-pipelined", vs_pipelined),
                     at_4k("clgp-l0", "fdp-l0", {}),
                     at_4k("clgp-l0", "base-l0", {})});
      if (node == cacti::TechNode::um090) {
        claims.push_back({.first = {"clgp-l0-pb16", node, 1024},
                          .second = {"base-pipelined", node, 16384},
                          .judged = true});
      }
    }
    make("fig6", "Figure 6: per-benchmark IPC (8KB L1, 0.045um)",
         ReportKind::PerBenchmark,
         {"base-pipelined", "fdp-l0-pb16", "clgp-l0-pb16"}, far, {8192});
    // CLGP is best or equal to FDP on every benchmark but gzip.
    c.back().claims.push_back(
        {.first = {"clgp-l0-pb16", cacti::TechNode::um045, 8192},
         .second = {"fdp-l0-pb16", cacti::TechNode::um045, 8192},
         .per_benchmark = true,
         .paper = 11.0});
    make("fig7", "Figure 7: fetch sources (0.045um)",
         ReportKind::FetchSources, {"fdp", "clgp", "fdp-l0", "clgp-l0"},
         far, sizes);
    // Paper reference (averages over the size axis): FDP PB 21.5%, L2
    // 37%, Mem 12.5%; CLGP PB 28%, L2 32%, Mem 10.5% (rest il1).
    make("fig8", "Figure 8: prefetch sources (0.045um)",
         ReportKind::PrefetchSources, {"fdp", "clgp"}, far, sizes);
    // The instruction-prefetcher family (related-work baselines and the
    // later record/graph schemes next to the paper's pair): every
    // registered scheme at matched L0/pre-buffer conditions, ablated
    // across both nodes over a reduced size axis.
    make("family",
         "Prefetcher family: sequential/stream/MANA/program-map vs "
         "FDP/CLGP",
         ReportKind::IpcVsSize,
         {"next-line", "next-line-l0", "stream", "stream-l0", "mana",
          "mana-l0", "program-map", "program-map-l0", "fdp-l0", "clgp-l0"},
         {cacti::TechNode::um090, cacti::TechNode::um045},
         {1024, 4096, 16384});
    // Small grid for CI and tests: exercises the whole campaign path
    // (run, resume, compare, report) in seconds at low budgets.
    make("smoke", "CI smoke grid", ReportKind::IpcVsSize,
         {"base", "clgp-l0"}, far, {1024, 4096}, {"eon", "gzip"});
    // The same grid under phase sampling: what CI diffs against "smoke"
    // to assert reconstruction fidelity and host-seconds reduction. The
    // knobs pin ~80 intervals at the CI budget with k <= 4 and a
    // three-interval detailed warm-up — measured to land inside the
    // reported error bar at >= 5x effective speedup on every point.
    make("smoke-sampled", "CI smoke grid (phase-sampled)",
         ReportKind::IpcVsSize, {"base", "clgp-l0"}, far, {1024, 4096},
         {"eon", "gzip"});
    c.back().sampling.enabled = true;
    c.back().sampling.interval_instructions = 5000;
    c.back().sampling.max_clusters = 4;
    c.back().sampling.warmup_intervals = 3;
    return c;
  }();
  return campaigns;
}

const CampaignSpec* find(std::string_view name) {
  for (const CampaignSpec& spec : all_campaigns()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

namespace {

std::string node_suffix(const CampaignSpec& spec, cacti::TechNode node) {
  if (spec.nodes.size() <= 1) return "";
  return " @ " + std::string(cacti::to_string(node));
}

std::string render_ipc_vs_size(const ResultGrid& grid) {
  const CampaignSpec& spec = grid.spec();
  std::ostringstream out;
  for (const cacti::TechNode node : spec.nodes) {
    std::vector<sim::Series> series;
    for (const std::string& p : grid.presets()) {
      sim::Series s;
      s.label = sim::preset_label(p);
      for (const std::uint64_t size : spec.l1_sizes) {
        s.values.push_back(grid.hmean_ipc(p, node, size));
      }
      series.push_back(std::move(s));
    }
    out << sim::render_size_chart(spec.title + node_suffix(spec, node),
                                  spec.l1_sizes, series)
        << '\n';
  }
  return out.str();
}

std::string render_per_benchmark(const ResultGrid& grid) {
  const CampaignSpec& spec = grid.spec();
  std::ostringstream out;
  for (const cacti::TechNode node : spec.nodes) {
    for (const std::uint64_t size : spec.l1_sizes) {
      std::vector<std::string> headers = {"benchmark"};
      for (const std::string& p : grid.presets()) {
        headers.push_back(sim::preset_label(p));
      }
      Table t(std::move(headers));
      for (const std::string& bench : grid.benchmarks()) {
        std::vector<std::string> row = {bench};
        for (const std::string& p : grid.presets()) {
          row.push_back(fmt(grid.at(p, node, size, bench)->result.ipc, 3));
        }
        t.add_row(std::move(row));
      }
      std::vector<std::string> hmean_row = {"HMEAN"};
      for (const std::string& p : grid.presets()) {
        hmean_row.push_back(fmt(grid.hmean_ipc(p, node, size), 3));
      }
      t.add_row(std::move(hmean_row));
      out << "== " << spec.title << node_suffix(spec, node) << " ==\n"
          << t.to_text() << "\ncsv:\n"
          << t.to_csv() << '\n';
    }
  }
  return out.str();
}

std::string render_sources(const ResultGrid& grid, bool prefetch) {
  const CampaignSpec& spec = grid.spec();
  std::ostringstream out;
  for (const std::string& p : grid.presets()) {
    for (const cacti::TechNode node : spec.nodes) {
      std::vector<SourceBreakdown> rows;
      for (const std::uint64_t size : spec.l1_sizes) {
        rows.push_back(grid.sources(prefetch
                                        ? &cpu::RunResult::prefetch_sources
                                        : &cpu::RunResult::fetch_sources,
                                    p, node, size));
      }
      const bool has_l0 = sim::parse_spec(p)->has_l0;
      out << sim::render_source_chart(
                 spec.title + " — " + sim::preset_label(p) +
                     node_suffix(spec, node),
                 spec.l1_sizes, rows, has_l0)
          << '\n';
    }
  }
  return out.str();
}

/// One row per claim: both cells, their HMEAN IPCs, the measured value
/// and the paper's.
std::string render_claims(const ResultGrid& grid) {
  const auto cell = [](const GridCell& c) {
    return sim::preset_label(c.preset) + " (" + fmt_bytes(c.l1i_size) +
           ", " + std::string(cacti::to_string(c.node)) + ")";
  };
  const auto pct = [](double x) {
    return std::string(x >= 0.0 ? "+" : "") + fmt(x, 1) + "%";
  };
  Table t({"claim", "HMEAN IPC", "vs", "measured", "paper"});
  for (const Claim& claim : grid.spec().claims) {
    const campaign::ClaimValue v = campaign::evaluate(grid, claim);
    const bool count = claim.per_benchmark;
    std::string measured = count ? fmt(v.measured, 0) + " of " +
                                       std::to_string(grid.benchmarks().size())
                                 : pct(v.measured);
    if (claim.judged) measured += v.holds() ? " (holds)" : " (does not hold)";
    const std::string paper = !claim.paper ? "-"
                              : count      ? fmt(*claim.paper, 0)
                                           : pct(*claim.paper);
    t.add_row({cell(claim.first) + (count ? " >= " : " over ") +
                   cell(claim.second),
               fmt(v.first_ipc, 3), fmt(v.second_ipc, 3), measured, paper});
  }
  return "== Claims: " + grid.spec().title + " ==\n" + t.to_text() + '\n';
}

std::string render_chart(const ResultGrid& grid) {
  switch (grid.spec().kind) {
    case ReportKind::IpcVsSize: return render_ipc_vs_size(grid);
    case ReportKind::PerBenchmark: return render_per_benchmark(grid);
    case ReportKind::FetchSources: return render_sources(grid, false);
    case ReportKind::PrefetchSources: return render_sources(grid, true);
  }
  return "";
}

}  // namespace

std::string render_text(const ResultGrid& grid) {
  if (grid.spec().claims.empty()) return render_chart(grid);
  return render_chart(grid) + render_claims(grid);
}

}  // namespace prestage::figures
