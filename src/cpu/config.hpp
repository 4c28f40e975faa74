// Machine configuration: the paper's Table 2 baseline plus the knobs the
// evaluation sweeps (L1 I-cache size/pipelining, L0 presence, prefetcher
// kind, pre-buffer size, technology node).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "cacti/cacti.hpp"
#include "cacti/tech.hpp"

namespace prestage::workload {
class WorkloadSpec;
}  // namespace prestage::workload

namespace prestage::cpu {

/// The prefetcher of the no-prefetch baseline (always registered).
inline constexpr const char* kNoPrefetcher = "base";

struct MachineConfig {
  // --- workload ---------------------------------------------------------
  std::string benchmark = "gzip";
  std::uint64_t seed = 1;
  std::uint64_t max_instructions = 100000;
  std::uint64_t warmup_instructions = 0;
  /// Workload override (trace replay, external imports): when set, the
  /// program image and trace source come from the spec and `benchmark` is
  /// only a report label.
  std::shared_ptr<const workload::WorkloadSpec> workload{};

  // --- technology -------------------------------------------------------
  cacti::TechNode node = cacti::TechNode::um045;

  // --- instruction cache stack -------------------------------------------
  std::uint64_t l1i_size = 4096;
  bool l1i_pipelined = false;
  bool ideal_l1 = false;  ///< force a 1-cycle L1 (Figure 1 "ideal")
  bool has_l0 = false;    ///< L0 sized to the node's one-cycle maximum

  // --- prefetching --------------------------------------------------------
  /// Registered prefetcher name (see prefetch::PrefetcherRegistry); the
  /// Cpu constructor builds the scheme + queue pair by registry lookup.
  std::string prefetcher = kNoPrefetcher;
  std::uint32_t prebuffer_entries = 4;

  // --- core (Table 2) -----------------------------------------------------
  std::uint32_t width = 4;
  std::uint32_t line_bytes = 64;

  // --- host-performance knobs (timing-neutral) ----------------------------
  /// Event-horizon cycle skipping: when every unit reports its next state
  /// change lies strictly in the future, run() advances the clock to the
  /// earliest such event in one step, folding the skipped span into the
  /// per-cycle counters. Pure host-side optimisation — every statistic,
  /// golden pin, and store byte is identical with it off (tests force
  /// both settings). Exposed as a knob for those equivalence tests.
  bool enable_cycle_skip = true;

  // --- watchdog (host-only; excluded from run-point keys) -----------------
  /// Per-run host-seconds budget; run() throws PointCancelled
  /// (common/cancel.hpp) once the wall clock it already tracks exceeds
  /// it, so the campaign engine can quarantine a runaway point instead
  /// of hanging a worker on it. 0 disables the check.
  double max_host_seconds = 0.0;

  // --- memory (Table 2, held fixed across the study) ----------------------
  int mem_latency = 200;
};

/// The seed of the trace walk a Cpu's oracle reads for a machine of
/// @p seed. A pass that must see exactly those records (a recording, a
/// sampling profile, a plan's snapshot walk) walks from the same seed.
[[nodiscard]] constexpr std::uint64_t oracle_trace_seed(std::uint64_t seed) {
  return seed + 17;
}

/// Latencies and sizes derived from the CACTI model for a configuration.
struct DerivedTimings {
  int l1i_latency = 1;
  int l2_latency = 17;
  int prebuffer_latency = 1;
  std::uint64_t l0_size = 256;
  /// Larger-than-one-cycle pre-buffers must be pipelined to stream (§5):
  /// more 64-byte entries than the node's one-cycle reach.
  bool prebuffer_pipelined = false;

  [[nodiscard]] static DerivedTimings from(const MachineConfig& cfg) {
    const cacti::AccessTimeModel model;
    DerivedTimings t;
    t.l1i_latency =
        cfg.ideal_l1
            ? 1
            : model.access_cycles({.size_bytes = cfg.l1i_size}, cfg.node);
    t.l2_latency =
        model.access_cycles({.size_bytes = 1ULL << 20U, .line_bytes = 128},
                            cfg.node);
    t.l0_size = model.max_one_cycle_size(cfg.node);
    t.prebuffer_pipelined = cfg.prebuffer_entries > t.l0_size / 64;
    const std::uint64_t pb_bytes =
        static_cast<std::uint64_t>(cfg.prebuffer_entries) * cfg.line_bytes;
    t.prebuffer_latency =
        model.access_cycles({.size_bytes = pb_bytes}, cfg.node);
    return t;
  }
};

}  // namespace prestage::cpu
