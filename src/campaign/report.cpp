#include "campaign/report.hpp"

#include <algorithm>
#include <set>

#include "common/prestage_assert.hpp"
#include "common/stats.hpp"
#include "prefetch/registry.hpp"

namespace prestage::campaign {

namespace {

/// Canonical spelling for grid lookups; asserts the spec is valid.
std::string canonical(const std::string& spec_string) {
  const auto c = sim::parse_spec(spec_string);
  PRESTAGE_ASSERT(c.has_value(),
                  "invalid machine spec '" + spec_string + "'");
  return sim::canonical_name(*c);
}

}  // namespace

ResultGrid::ResultGrid(const CampaignSpec& spec, const ResultStore& store)
    : spec_(&spec), store_(&store) {
  presets_.reserve(spec.presets.size());
  for (const std::string& p : spec.presets) presets_.push_back(canonical(p));
  benchmarks_ = spec.resolved_benchmarks();
  instructions_ = spec.resolved_instructions();
  for (const RunPoint& p : expand(spec)) {
    ++total_;
    if (!store.contains(p.key())) ++missing_;
  }
}

const PointResult* ResultGrid::at(const std::string& preset,
                                  cacti::TechNode node,
                                  std::uint64_t l1i_size,
                                  const std::string& benchmark) const {
  // The sampling block participates in the key, so a sampled grid's
  // lookups must resolve it exactly the way expand() did.
  const RunPoint point{.preset = preset,
                       .config = canonical(preset),
                       .node = node,
                       .l1i_size = l1i_size,
                       .benchmark = benchmark,
                       .instructions = instructions_,
                       .seed = spec_->seed,
                       .sampling = spec_->sampling.resolve(instructions_)};
  return store_->find(point.key());
}

double ResultGrid::hmean_ipc(const std::string& preset,
                             cacti::TechNode node,
                             std::uint64_t l1i_size) const {
  std::vector<double> ipcs;
  ipcs.reserve(benchmarks_.size());
  for (const std::string& bench : benchmarks_) {
    const PointResult* r = at(preset, node, l1i_size, bench);
    PRESTAGE_ASSERT(r != nullptr, "grid cell missing from store");
    ipcs.push_back(r->result.ipc);
  }
  return harmonic_mean(ipcs);
}

SourceBreakdown ResultGrid::sources(SourceBreakdown cpu::RunResult::*which,
                                    const std::string& preset,
                                    cacti::TechNode node,
                                    std::uint64_t l1i_size) const {
  SourceBreakdown total;
  for (const std::string& bench : benchmarks_) {
    const PointResult* r = at(preset, node, l1i_size, bench);
    PRESTAGE_ASSERT(r != nullptr, "grid cell missing from store");
    total += r->result.*which;
  }
  return total;
}

namespace {

void write_ipc_vs_size(JsonWriter& json, const ResultGrid& grid) {
  const CampaignSpec& spec = grid.spec();
  json.key("series");
  json.begin_array();
  for (const std::string& preset : grid.presets()) {
    for (const cacti::TechNode node : spec.nodes) {
      json.begin_object();
      json.field("preset", preset);
      json.field("label", sim::preset_label(preset));
      json.field("node", cacti::to_string(node));
      // The scheme's storage budget is a property of the composition at
      // this node, not of the L1 axis: one value per series.
      json.field("storage_bits",
                 prefetch::probe_storage_bits(sim::make_config(
                     preset, node, spec.l1_sizes.front())));
      json.key("hmean_ipc");
      json.begin_array();
      for (const std::uint64_t size : spec.l1_sizes) {
        json.value(grid.hmean_ipc(preset, node, size));
      }
      json.end_array();
      json.end_object();
    }
  }
  json.end_array();
}

void write_per_benchmark(JsonWriter& json, const ResultGrid& grid) {
  const CampaignSpec& spec = grid.spec();
  json.key("groups");
  json.begin_array();
  for (const std::string& preset : grid.presets()) {
    for (const cacti::TechNode node : spec.nodes) {
      for (const std::uint64_t size : spec.l1_sizes) {
        json.begin_object();
        json.field("preset", preset);
        json.field("node", cacti::to_string(node));
        json.field("l1i_size", size);
        json.key("ipc");
        json.begin_object();
        for (const std::string& bench : grid.benchmarks()) {
          json.field(bench, grid.at(preset, node, size, bench)->result.ipc);
        }
        json.end_object();
        json.field("hmean_ipc", grid.hmean_ipc(preset, node, size));
        json.end_object();
      }
    }
  }
  json.end_array();
}

void write_sources(JsonWriter& json, const ResultGrid& grid,
                   bool prefetch) {
  const CampaignSpec& spec = grid.spec();
  json.key("rows");
  json.begin_array();
  for (const std::string& preset : grid.presets()) {
    for (const cacti::TechNode node : spec.nodes) {
      for (const std::uint64_t size : spec.l1_sizes) {
        const SourceBreakdown sb = grid.sources(
            prefetch ? &cpu::RunResult::prefetch_sources
                     : &cpu::RunResult::fetch_sources,
            preset, node, size);
        json.begin_object();
        json.field("preset", preset);
        json.field("node", cacti::to_string(node));
        json.field("l1i_size", size);
        json.key("counts");
        write_source_counts(json, sb);
        json.key("fractions");
        write_source_fractions(json, sb);
        json.end_object();
      }
    }
  }
  json.end_array();
}

}  // namespace

void write_report(JsonWriter& json, const ResultGrid& grid,
                  const PerfLog& perf) {
  const CampaignSpec& spec = grid.spec();
  PRESTAGE_ASSERT(grid.missing() == 0, "cannot report an incomplete grid");
  json.begin_object();
  json.field("schema", "prestage-campaign-report-v1");
  json.field("campaign", spec.name);
  json.field("title", spec.title);
  json.field("kind", to_string(spec.kind));
  json.field("instructions", grid.instructions());
  json.field("seed", spec.seed);
  json.key("presets");
  json.begin_array();
  for (const std::string& p : grid.presets()) json.value(p);
  json.end_array();
  json.key("nodes");
  json.begin_array();
  for (const cacti::TechNode n : spec.nodes) {
    json.value(cacti::to_string(n));
  }
  json.end_array();
  json.key("l1_sizes");
  json.begin_array();
  for (const std::uint64_t s : spec.l1_sizes) json.value(s);
  json.end_array();
  json.key("benchmarks");
  json.begin_array();
  for (const std::string& b : grid.benchmarks()) json.value(b);
  json.end_array();

  switch (spec.kind) {
    case ReportKind::IpcVsSize: write_ipc_vs_size(json, grid); break;
    case ReportKind::PerBenchmark: write_per_benchmark(json, grid); break;
    case ReportKind::FetchSources: write_sources(json, grid, false); break;
    case ReportKind::PrefetchSources: write_sources(json, grid, true); break;
  }

  // Additive sampling summary: present only when the grid was sampled,
  // so full-run report documents are byte-identical to the pre-sampling
  // schema. It sums this grid's points only: a store may also hold other
  // grids' (another budget's, say).
  if (spec.sampling.enabled) {
    std::set<std::string> keys;
    for (const RunPoint& p : expand(spec)) keys.insert(p.key());
    double max_err = 0.0;
    std::uint64_t cold = 0;
    std::uint64_t simulated = 0;
    std::size_t points = 0;
    for (const PointResult& r : grid.store().entries()) {
      if (!r.result.sampled || keys.count(r.key) == 0) continue;
      ++points;
      max_err = std::max(max_err, r.result.ipc_error);
      cold += r.result.sample_cold_starts;
      simulated += r.result.sample_simulated_instructions;
    }
    // Estimated over timing-simulated instructions: the deterministic
    // lower bound on the sampling speedup (profiling and skipping are
    // not counted). It reads only the store, so recomputed points that
    // appear twice in the perf sidecar cannot move it.
    const double budget = static_cast<double>(grid.instructions()) *
                          static_cast<double>(points);
    json.key("sampling");
    json.begin_object();
    json.field("points", points);
    json.field("max_ipc_error", max_err);
    json.field("cold_starts", cold);
    json.field("simulated_instructions", simulated);
    json.field("effective_speedup",
               simulated > 0 ? budget / static_cast<double>(simulated)
                             : 0.0);
    json.end_object();
  }

  if (!perf.empty()) {
    json.key("host");
    json.begin_object();
    write_perf_summary(json, summarize_perf(perf));
    json.end_object();
  }
  json.end_object();
}

}  // namespace prestage::campaign
