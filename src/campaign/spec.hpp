// Declarative experiment campaigns: a named grid over machine presets,
// technology nodes, L1 I-cache capacities and benchmarks, expanded into
// individually addressable run points.
//
// A run point is keyed by a content hash of its canonical descriptor
// (preset/node/L1/benchmark/instructions/seed), so a result store can
// tell whether a point has already been simulated regardless of the
// order campaigns ran in, and a changed budget or seed never aliases an
// old result. The preset axis holds machine-composition spec strings
// (sim::parse_spec grammar); expansion canonicalizes them, and the
// descriptor embeds the canonical config string — never an enum ordinal
// — so configurations added by new registry entries can never collide
// with existing keys. The figure grids of the paper (Figures 1/4/5/7/8)
// are campaigns over these axes — see bench/figures.cpp for the
// registry.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cacti/tech.hpp"
#include "cpu/config.hpp"
#include "sample/params.hpp"
#include "sim/presets.hpp"

namespace prestage::campaign {

/// What `campaign report` builds from a finished grid — which of the
/// paper's plot shapes the campaign reproduces.
enum class ReportKind : std::uint8_t {
  IpcVsSize,        ///< HMEAN IPC line per (preset, node) over L1 sizes
  PerBenchmark,     ///< per-benchmark IPC bars at fixed size (Figure 6)
  FetchSources,     ///< fetch-source distribution per size (Figure 7)
  PrefetchSources,  ///< prefetch-source distribution per size (Figure 8)
};

[[nodiscard]] std::string_view to_string(ReportKind k);

/// One cell of a grid: a preset at a node and an L1 size, over the
/// benchmark axis.
struct GridCell {
  std::string preset;
  cacti::TechNode node = cacti::TechNode::um045;
  std::uint64_t l1i_size = 4096;
};

/// A claim of the paper read off a finished grid: the first cell against
/// the second. Report data only: it enters no run-point key, descriptor
/// or store line.
struct Claim {
  GridCell first;
  GridCell second;
  /// Measure the number of benchmarks whose first-cell IPC is at least
  /// the second's, not the HMEAN speedup in % (sim::speedup_pct).
  bool per_benchmark = false;
  std::optional<double> paper{};  ///< the paper's value, where it gives one
  /// The paper states only that the first cell is at least as fast:
  /// the report judges it (holds when the speedup is >= 0).
  bool judged = false;
};

/// A declarative experiment grid. Expansion order (and therefore store
/// and report order) is preset-major: preset, then node, then L1 size,
/// then benchmark.
struct CampaignSpec {
  std::string name;   ///< CLI handle; default store/report file stem
  std::string title;  ///< human chart title
  ReportKind kind = ReportKind::IpcVsSize;

  /// Machine-composition spec strings ("clgp-l0-pb16", "fdp+l0").
  /// Expansion canonicalizes each through sim::parse_spec and asserts
  /// validity — campaign specs are code, not user input. "@node"
  /// suffixes are rejected here: the grid's explicit node axis is the
  /// only node source, so a store row's node column is always truthful.
  std::vector<std::string> presets;
  std::vector<cacti::TechNode> nodes;
  std::vector<std::uint64_t> l1_sizes;
  std::vector<std::string> benchmarks;  ///< empty -> the full 12 SPEC suite

  std::uint64_t instructions = 0;  ///< 0 -> sim::default_instructions()
  std::uint64_t seed = 1;

  /// Sampled-simulation block. Disabled (the default) leaves every run
  /// point, key and store byte exactly as a full-run campaign; enabled
  /// estimates each point from phase-clustered representative slices
  /// (src/sample/) and records error bars alongside the estimates.
  sample::SamplingParams sampling;

  /// What `campaign report` evaluates after the figure data.
  std::vector<Claim> claims;

  /// The benchmark axis with the empty-list default resolved to the full
  /// suite. Run-point keys embed the resolved values, so every consumer
  /// (expansion, status, report) must resolve through these two — never
  /// by hand.
  [[nodiscard]] std::vector<std::string> resolved_benchmarks() const;
  /// The per-point budget with 0 resolved to sim::default_instructions().
  [[nodiscard]] std::uint64_t resolved_instructions() const;

  /// Grid size after expansion (resolving empty benchmark lists).
  [[nodiscard]] std::size_t point_count() const;
};

/// One fully resolved simulation of a campaign grid.
struct RunPoint {
  std::string preset = "base";  ///< the grid's spelling (provenance)
  std::string config = "base";  ///< canonical config string (keying)
  cacti::TechNode node = cacti::TechNode::um045;
  std::uint64_t l1i_size = 4096;
  std::string benchmark;
  std::uint64_t instructions = 0;  ///< always resolved (never 0)
  std::uint64_t seed = 1;

  /// Resolved sampling parameters; disabled for full-run points.
  sample::ResolvedSamplingParams sampling;

  /// Canonical text form, e.g.
  /// "preset=clgp-l0-pb16|node=0.045um|l1=4096|bench=eon|instrs=2000|seed=1".
  /// The preset= token carries `config` (the canonical spelling), so
  /// "fdp+l0" and "fdp-l0" grids share keys. Sampled points append the
  /// resolved sampling suffix ("|sample=..."), so a sampled estimate can
  /// never alias a full-run result; full-run descriptors are unchanged.
  [[nodiscard]] std::string descriptor() const;

  /// Content-hash key: 16 hex digits of FNV-1a 64 over descriptor().
  [[nodiscard]] std::string key() const;

  /// The machine configuration this point simulates.
  [[nodiscard]] cpu::MachineConfig machine_config() const;
};

/// Expands the grid; benchmarks default to the full suite and an
/// instruction budget of 0 resolves to sim::default_instructions() (so
/// keys always embed the actual budget).
[[nodiscard]] std::vector<RunPoint> expand(const CampaignSpec& spec);

/// FNV-1a 64-bit content hash (run-point keys; stable across platforms).
[[nodiscard]] std::uint64_t fnv1a64(std::string_view text);

}  // namespace prestage::campaign
