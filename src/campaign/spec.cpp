#include "campaign/spec.hpp"

#include <cstdio>

#include "common/prestage_assert.hpp"

namespace prestage::campaign {

std::string_view to_string(ReportKind k) {
  switch (k) {
    case ReportKind::IpcVsSize: return "ipc_vs_size";
    case ReportKind::PerBenchmark: return "per_benchmark";
    case ReportKind::FetchSources: return "fetch_sources";
    case ReportKind::PrefetchSources: return "prefetch_sources";
  }
  return "?";
}

std::vector<std::string> CampaignSpec::resolved_benchmarks() const {
  return benchmarks.empty() ? sim::full_suite() : benchmarks;
}

std::uint64_t CampaignSpec::resolved_instructions() const {
  return instructions > 0 ? instructions : sim::default_instructions();
}

std::size_t CampaignSpec::point_count() const {
  return presets.size() * nodes.size() * l1_sizes.size() *
         resolved_benchmarks().size();
}

std::string RunPoint::descriptor() const {
  char buf[64];
  std::string out;
  out += "preset=";
  out += config;
  out += "|node=";
  out += cacti::to_string(node);
  std::snprintf(buf, sizeof buf, "|l1=%llu",
                static_cast<unsigned long long>(l1i_size));
  out += buf;
  out += "|bench=";
  out += benchmark;
  std::snprintf(buf, sizeof buf, "|instrs=%llu|seed=%llu",
                static_cast<unsigned long long>(instructions),
                static_cast<unsigned long long>(seed));
  out += buf;
  out += sampling.descriptor_suffix();  // empty unless sampling enabled
  return out;
}

std::string RunPoint::key() const {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fnv1a64(descriptor())));
  return buf;
}

cpu::MachineConfig RunPoint::machine_config() const {
  cpu::MachineConfig cfg = sim::make_config(config, node, l1i_size);
  cfg.benchmark = benchmark;
  cfg.max_instructions = instructions;
  cfg.seed = seed;
  return cfg;
}

std::vector<RunPoint> expand(const CampaignSpec& spec) {
  const std::vector<std::string> benches = spec.resolved_benchmarks();
  const std::uint64_t instrs = spec.resolved_instructions();
  const sample::ResolvedSamplingParams sampling =
      spec.sampling.resolve(instrs);
  std::vector<RunPoint> points;
  points.reserve(spec.presets.size() * spec.nodes.size() *
                 spec.l1_sizes.size() * benches.size());
  for (const std::string& spec_string : spec.presets) {
    // Keys embed the canonical spelling, so "fdp+l0" and "fdp-l0" name
    // the same point.
    const auto composition = sim::parse_spec(spec_string);
    PRESTAGE_ASSERT(composition.has_value(),
                    "campaign '" + spec.name + "': invalid machine spec '" +
                        spec_string + "'");
    PRESTAGE_ASSERT(!composition->node.has_value(),
                    "campaign '" + spec.name + "': spec '" + spec_string +
                        "' pins a node; use the grid's node axis instead");
    const std::string config = sim::canonical_name(*composition);
    for (const cacti::TechNode node : spec.nodes) {
      for (const std::uint64_t size : spec.l1_sizes) {
        for (const std::string& bench : benches) {
          points.push_back(RunPoint{.preset = spec_string,
                                    .config = config,
                                    .node = node,
                                    .l1i_size = size,
                                    .benchmark = bench,
                                    .instructions = instrs,
                                    .seed = spec.seed,
                                    .sampling = sampling});
        }
      }
    }
  }
  return points;
}

std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace prestage::campaign
