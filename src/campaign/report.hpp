// Figure reports over a campaign store: ResultGrid gives shaped access
// to a store through the axes of a spec (lookups by preset/node/size/
// benchmark, harmonic-mean IPC and source aggregation per grid cell),
// evaluate() measures the spec's claims on it, and write_report() emits
// the versioned BENCH_*.json document for the campaign's ReportKind.
// Reports are pure functions of (spec, store) — no timestamps, no
// environment — so an identical store always yields a byte-identical
// report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/perf.hpp"
#include "campaign/spec.hpp"
#include "campaign/store.hpp"
#include "common/json_writer.hpp"

namespace prestage::campaign {

class ResultGrid {
 public:
  /// Binds @p spec's axes to @p store. Both must outlive the grid.
  ResultGrid(const CampaignSpec& spec, const ResultStore& store);

  [[nodiscard]] const CampaignSpec& spec() const { return *spec_; }
  [[nodiscard]] const ResultStore& store() const { return *store_; }
  /// Benchmark axis with an empty spec list resolved to the full suite.
  [[nodiscard]] const std::vector<std::string>& benchmarks() const {
    return benchmarks_;
  }
  /// Per-point budget with 0 resolved to sim::default_instructions().
  [[nodiscard]] std::uint64_t instructions() const { return instructions_; }
  /// Grid points that have no result in the store.
  [[nodiscard]] std::size_t missing() const { return missing_; }
  [[nodiscard]] std::size_t total_points() const { return total_; }

  /// The preset axis with every spec string canonicalized (lookup keys
  /// must match what expansion hashed).
  [[nodiscard]] const std::vector<std::string>& presets() const {
    return presets_;
  }

  /// The stored result for one grid cell; nullptr when absent. @p preset
  /// is any spec-string spelling (canonicalized internally).
  [[nodiscard]] const PointResult* at(const std::string& preset,
                                      cacti::TechNode node,
                                      std::uint64_t l1i_size,
                                      const std::string& benchmark) const;

  /// Harmonic-mean IPC over the benchmark axis (asserts completeness).
  [[nodiscard]] double hmean_ipc(const std::string& preset,
                                 cacti::TechNode node,
                                 std::uint64_t l1i_size) const;

  /// One source breakdown (RunResult::fetch_sources or
  /// prefetch_sources) summed over the benchmark axis.
  [[nodiscard]] SourceBreakdown sources(
      SourceBreakdown cpu::RunResult::*which, const std::string& preset,
      cacti::TechNode node, std::uint64_t l1i_size) const;

 private:
  const CampaignSpec* spec_;
  const ResultStore* store_;
  std::vector<std::string> presets_;
  std::vector<std::string> benchmarks_;
  std::uint64_t instructions_ = 0;
  std::size_t missing_ = 0;
  std::size_t total_ = 0;
};

/// A claim measured on a complete grid.
struct ClaimValue {
  double first_ipc = 0.0;   ///< HMEAN IPC of the first cell
  double second_ipc = 0.0;  ///< HMEAN IPC of the second cell
  /// The HMEAN speedup in %, or the benchmark count (per_benchmark).
  double measured = 0.0;
  /// For a judged claim: the speedup is >= 0.
  [[nodiscard]] bool holds() const { return measured >= 0.0; }
};

/// Measures @p claim on @p grid (asserts both cells are complete).
[[nodiscard]] ClaimValue evaluate(const ResultGrid& grid, const Claim& claim);

/// Writes the `prestage-campaign-report-v1` document for the campaign's
/// ReportKind. The grid must be complete (callers gate on missing()).
/// A spec with claims gets a "claims" block after the figure data.
/// When @p perf has records (loaded from the store's `.perf` sidecar), a
/// trailing "host" section reports total host seconds and Minstr/s plus
/// per-config aggregates — the one place campaign host telemetry is
/// read. The figure numbers themselves stay a pure function of (spec,
/// store); without perf the document is byte-identical to what
/// pre-telemetry builds emitted.
void write_report(JsonWriter& json, const ResultGrid& grid,
                  const PerfLog& perf = {});

}  // namespace prestage::campaign
