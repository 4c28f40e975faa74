// The whole machine: workload + oracle + decoupled front-end + prefetcher
// + cache hierarchy + back-end, advanced cycle by cycle.
//
// This is the public simulation entry point: construct a Cpu from a
// MachineConfig and call run(); the RunResult carries every statistic the
// paper's figures plot.
#pragma once

#include <memory>
#include <string>

#include "bpred/ras.hpp"
#include "bpred/stream_predictor.hpp"
#include "common/stats.hpp"
#include "cpu/backend.hpp"
#include "cpu/config.hpp"
#include "cpu/frontend_driver.hpp"
#include "cpu/oracle.hpp"
#include "frontend/fetch_engine.hpp"
#include "frontend/fetch_queue.hpp"
#include "mem/ifetch_caches.hpp"
#include "mem/memsys.hpp"
#include "prefetch/prefetcher.hpp"
#include "workload/program.hpp"

namespace prestage::json {
struct Value;
}

namespace prestage::cpu {

/// Everything a bench harness needs to reproduce the paper's figures.
struct RunResult {
  std::string benchmark;
  std::uint64_t instructions = 0;  ///< committed (post-warmup)
  Cycle cycles = 0;                ///< elapsed (post-warmup)
  double ipc = 0.0;

  SourceBreakdown fetch_sources;     ///< Figure 7
  SourceBreakdown prefetch_sources;  ///< Figure 8
  std::uint64_t lines_fetched = 0;

  std::uint64_t recoveries = 0;       ///< branch misprediction recoveries
  std::uint64_t blocks_predicted = 0;
  double mispredicts_per_kilo_instr = 0.0;

  std::uint64_t l2_hits = 0;
  std::uint64_t l2_misses = 0;
  std::uint64_t dcache_misses = 0;
  std::uint64_t prefetches_issued = 0;

  // --- sampled-simulation estimates (src/sample/) -----------------------
  // When `sampled` is set, the counters above are whole-run *estimates*
  // reconstructed from weighted representative slices, and ipc carries a
  // confidence half-width. Full runs leave every field here at its
  // default, and the campaign store only serializes them when sampled —
  // full-run store bytes and golden pins are unchanged.
  bool sampled = false;
  double ipc_error = 0.0;  ///< half-width of the IPC confidence interval
  std::uint64_t sample_intervals = 0;
  std::uint64_t sample_clusters = 0;
  std::uint64_t sample_slices = 0;
  std::uint64_t sample_cold_starts = 0;  ///< slices without restored state
  /// Instructions actually timing-simulated (sum over slices) — the
  /// numerator of the effective-speedup claim.
  std::uint64_t sample_simulated_instructions = 0;

  // --- host-throughput telemetry ---------------------------------------
  // Wall-clock cost of the simulation itself (warmup included: that is
  // real host work), measured around the run loop. Nondeterministic by
  // nature, so these fields are excluded from golden pins and from the
  // byte-stable campaign store lines; they flow into the perf sidecars
  // and the `host` sections of the JSON reports instead.
  double host_seconds = 0.0;
  /// Millions of simulated instructions committed per host second.
  double minstr_per_sec = 0.0;
  /// Cycles the event-horizon skip advanced in bulk (whole run, warmup
  /// included). Host diagnostics like the two fields above: the skip is
  /// timing-neutral, so this is about where host time went, not timing.
  Cycle cycles_skipped = 0;
};

/// One statistic a RunResult carries: its JSON key and its member.
template <typename T>
struct RunStat {
  const char* key;
  T RunResult::*member;
};

// The statistic tables. Every path that handles a run's simulated
// statistics walks them rather than naming fields: the warm-up delta,
// sampled reconstruction, store lines, the CLI JSON and the test
// comparators. instructions, cycles, ipc and mispredicts_per_kilo_instr
// are not listed, because a sampled run derives them from CPI and the
// budget instead of scaling a per-instruction rate.

/// Event counts, in store-line order.
inline constexpr RunStat<std::uint64_t> kRunCounts[] = {
    {"recoveries", &RunResult::recoveries},
    {"blocks_predicted", &RunResult::blocks_predicted},
    {"lines_fetched", &RunResult::lines_fetched},
    {"prefetches_issued", &RunResult::prefetches_issued},
    {"l2_hits", &RunResult::l2_hits},
    {"l2_misses", &RunResult::l2_misses},
    {"dcache_misses", &RunResult::dcache_misses},
};

/// Per-source breakdowns (Figures 7 and 8), in store-line order.
inline constexpr RunStat<SourceBreakdown> kRunSources[] = {
    {"fetch_sources", &RunResult::fetch_sources},
    {"prefetch_sources", &RunResult::prefetch_sources},
};

/// The sampling block's counts, set only on sampled estimates.
inline constexpr RunStat<std::uint64_t> kSampleCounts[] = {
    {"intervals", &RunResult::sample_intervals},
    {"clusters", &RunResult::sample_clusters},
    {"slices", &RunResult::sample_slices},
    {"cold_starts", &RunResult::sample_cold_starts},
    {"simulated_instructions", &RunResult::sample_simulated_instructions},
};

/// Writes @p r's simulated statistics into the open JSON object:
/// instructions, cycles, ipc, mispredicts_per_kilo_instr, then
/// kRunCounts and kRunSources. This is a store line's "result" body.
void write_result_body(JsonWriter& json, const RunResult& r);

/// Writes ipc_error and kSampleCounts into the open JSON object.
void write_sampling_fields(JsonWriter& json, const RunResult& r);

/// Reads what write_result_body wrote, plus the sampling fields from a
/// nested "sampling" object when present (which marks the result
/// sampled). Throws json::JsonError on a missing field or on a count
/// that is not an unsigned integer.
[[nodiscard]] RunResult read_result_body(const json::Value& v);

class Cpu {
 public:
  explicit Cpu(const MachineConfig& config);
  ~Cpu();

  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;

  /// Runs until the configured instruction count commits; returns the
  /// collected statistics. Throws SimError if the machine wedges.
  RunResult run();

  /// Advances a single cycle (integration tests).
  void tick();

  /// Functional i-cache warm-up before run(): replays @p warm_lines (oldest
  /// first) as demand fills into L0/L1 and tags into the L2, the way a
  /// sampled slice inherits the cache contents its checkpoint recorded.
  /// Deterministic; must be called before the first tick.
  void warm_ifetch(const std::vector<Addr>& warm_lines);

  /// Mutable prefetcher access for checkpoint restore (src/sample/).
  [[nodiscard]] prefetch::IPrefetcher& prefetcher_mut() {
    return *prefetcher_;
  }

  [[nodiscard]] Cycle cycle() const noexcept { return cycle_; }
  /// Cycles advanced in bulk by the event-horizon skip (diagnostics;
  /// zero when cfg.enable_cycle_skip is false or no span ever froze).
  [[nodiscard]] Cycle cycles_skipped() const noexcept {
    return cycles_skipped_;
  }
  [[nodiscard]] const Backend& backend() const { return *backend_; }
  [[nodiscard]] const prefetch::IPrefetcher& prefetcher() const {
    return *prefetcher_;
  }
  [[nodiscard]] const frontend::FetchEngine& fetch_engine() const {
    return *fetch_engine_;
  }
  [[nodiscard]] const FrontendDriver& driver() const { return *driver_; }
  [[nodiscard]] const MachineConfig& config() const { return cfg_; }
  [[nodiscard]] const DerivedTimings& timings() const { return timings_; }
  [[nodiscard]] const workload::Program& program() const { return program_; }
  /// Records the oracle has read from its trace source: every committed
  /// instruction plus the decode read-ahead. `prestage trace record`
  /// writes this many, continued to the end of their stream.
  [[nodiscard]] std::uint64_t trace_records_read() const {
    return oracle_->instructions_generated();
  }

  Counter recoveries;

 private:
  void do_recovery(Cycle now);

  /// Every listed statistic, cumulative since construction: the binding
  /// from RunResult's fields to the units' counters. run() reports the
  /// difference between its readings at the warm-up boundary and at the
  /// end.
  [[nodiscard]] RunResult totals() const;

  /// Event-horizon fast-forward: when every unit's next state change lies
  /// strictly past `cycle_`, advances the clock to the earliest such
  /// event (clamped to @p cycle_cap) in one step, folding the skipped
  /// span into the per-cycle counters. Returns true when cycles were
  /// skipped; the caller re-enters the run loop so the wedge assert and
  /// warmup bookkeeping see every intermediate state they would have
  /// seen cycle by cycle.
  bool try_skip(Cycle cycle_cap);

  MachineConfig cfg_;
  DerivedTimings timings_;
  /// cfg.workload, or the process-wide synthetic spec for (benchmark,
  /// seed). Shared read-only with every other Cpu on the same workload;
  /// holding it keeps program_ and the oracle's trace source valid.
  std::shared_ptr<const workload::WorkloadSpec> workload_;
  const workload::Program& program_;

  std::unique_ptr<Oracle> oracle_;
  bpred::StreamPredictor predictor_;
  bpred::ReturnAddressStack ras_;
  std::unique_ptr<mem::MemSystem> mem_;
  std::unique_ptr<mem::IFetchCaches> caches_;
  std::unique_ptr<frontend::IFetchQueue> queue_;
  std::unique_ptr<prefetch::IPrefetcher> prefetcher_;
  std::unique_ptr<frontend::FetchEngine> fetch_engine_;
  std::unique_ptr<Backend> backend_;
  std::unique_ptr<FrontendDriver> driver_;

  Cycle cycle_ = 0;
  Cycle cycles_skipped_ = 0;
};

}  // namespace prestage::cpu
