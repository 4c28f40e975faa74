// Report formatting shared by the bench harnesses: IPC-vs-size series
// tables (the paper's line charts) and source-distribution tables (the
// paper's stacked bars), each with a CSV block for plotting — plus the
// host-throughput telemetry every report layer threads through (the
// simulator's own speed is tracked alongside the simulated results).
#pragma once

#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "cpu/cpu.hpp"

namespace prestage {
class JsonWriter;
}

namespace prestage::sim {

/// Aggregated wall-clock cost of a batch of simulations. `host_seconds`
/// is summed per run (across parallel workers it is total worker-seconds,
/// not elapsed time); `minstr_per_sec` is total simulated instructions
/// over total worker-seconds — per-worker kernel throughput, which is
/// the number the BENCH perf trajectory tracks.
struct HostPerf {
  double host_seconds = 0.0;
  double minstr_per_sec = 0.0;
};

/// THE seconds-weighted fold, shared by every layer that aggregates
/// host telemetry (suite/sweep aggregation, the campaign engine and
/// sidecar summaries): accumulate (seconds, rate) pairs, then divide
/// total simulated instructions by total worker-seconds exactly once.
struct HostPerfAccumulator {
  void add(double host_seconds, double minstr_per_sec) noexcept {
    // FP accumulation order is the caller's add() order. The numbers
    // are telemetry, never store-keyed, and every caller folds them in
    // a deterministic sequence: grid expansion order.
    seconds_ += host_seconds;
    minstr_ += minstr_per_sec * host_seconds;
  }
  [[nodiscard]] HostPerf result() const noexcept {
    return {seconds_, seconds_ > 0.0 ? minstr_ / seconds_ : 0.0};
  }

 private:
  double seconds_ = 0.0;
  double minstr_ = 0.0;  ///< simulated Minstr recovered as rate x time
};

/// One human-readable line: "0.123 s host time, 4.56 Minstr/s".
[[nodiscard]] std::string render_host_perf(const HostPerf& perf);

/// The JSON shape every schema uses:
/// {"host_seconds": s, "minstr_per_sec": m}.
void write_host_perf(JsonWriter& json, const HostPerf& perf);

/// One line-chart series: a label and one value per X position.
struct Series {
  std::string label;
  std::vector<double> values;
};

/// Renders an IPC-vs-L1-size chart as text + CSV (sizes on rows).
[[nodiscard]] std::string render_size_chart(
    const std::string& title, const std::vector<std::uint64_t>& sizes,
    const std::vector<Series>& series);

/// Renders a source-distribution table (one row per size, one column per
/// storage level, values in percent).
[[nodiscard]] std::string render_source_chart(
    const std::string& title, const std::vector<std::uint64_t>& sizes,
    const std::vector<SourceBreakdown>& rows, bool include_l0);

/// Percentage speedup of @p a over @p b.
[[nodiscard]] double speedup_pct(double a, double b);

}  // namespace prestage::sim
