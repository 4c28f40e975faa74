// Campaign execution: expands a spec, drops every point whose key is
// already in the store, and simulates the rest across a worker pool that
// takes points in grid order from one shared cursor (common/parallel.hpp
// — jobs of 0 means one worker per hardware thread). A sampled point
// takes its plan from the process-wide cache (sample::get_or_build_plan):
// the cache builds each plan once, and other workers that need it wait
// for that build. Every grid takes this path: stores through
// run_campaign, and the CLI's suite/sweep, the examples and the CLGP
// ablation through run_in_memory.
//
// Results are appended to the store strictly in grid-expansion order —
// a completed point is held until every earlier point has been written —
// so the store file is byte-identical for any worker count, and a fresh
// run and a kill-then-resume of the same grid produce the same bytes.
// Because points start in index order, a completed point waits only on
// lower points still in flight, so a killed run loses those in-flight
// points and whatever finished above the lowest of them.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "campaign/failures.hpp"
#include "campaign/spec.hpp"
#include "campaign/store.hpp"

namespace prestage::campaign {

/// How the engine treats a run point that throws or runs away.
struct FaultPolicy {
  /// Total attempts per point before quarantine (retries + 1). Retries
  /// are immediate — bounded by count, never by wall-clock sleeps — so
  /// tests and grids pay nothing for the default. Clamped to >= 1.
  unsigned max_attempts = 2;
  /// Fail-fast: rethrow the first error (annotated with the run-point
  /// key and config) instead of retrying or quarantining.
  bool strict = false;
  /// Per-point host-seconds budget; a point exceeding it is cancelled
  /// cooperatively (Cpu::run's watchdog) and quarantined. 0 disables.
  double point_host_seconds = 0.0;
  /// fsync the store and perf sidecar after every line (crash-safe
  /// durable appends; see LineAppender).
  bool durable = false;
};

/// What a run did: total grid size vs. reused (already stored) vs.
/// freshly executed points, plus how many store lines were dropped as
/// corrupt at load (those points are recomputed), plus the host cost of
/// the executed points (worker-seconds and seconds-weighted Minstr/s;
/// the same numbers are appended per point to the `<store>.perf`
/// sidecar — see campaign/perf.hpp).
struct RunOutcome {
  std::size_t total = 0;
  std::size_t reused = 0;
  std::size_t executed = 0;
  std::size_t corrupt_dropped = 0;
  double host_seconds = 0.0;
  double minstr_per_sec = 0.0;

  /// Failure isolation: points that kept throwing and were quarantined
  /// to the `<store>.failures` sidecar (their records ride along for
  /// the CLI summary), and points that succeeded only after retries.
  std::size_t quarantined = 0;
  std::size_t retried = 0;
  std::vector<FailureRecord> failures;
  /// The store was rewritten into canonical grid order after the run
  /// (interior gap from an earlier quarantine/kill, or corrupt lines
  /// physically removed) — see compact_store.
  bool compacted = false;
};

/// Progress callback: (newly completed points, points to execute).
using Progress = std::function<void(std::size_t, std::size_t)>;

/// Simulates one run point (used by the engine workers and tests).
/// @p max_host_seconds is the watchdog budget (MachineConfig's; host-only,
/// never part of the point's identity); 0 disables it.
[[nodiscard]] PointResult simulate(const RunPoint& point,
                                   double max_host_seconds = 0.0);

/// Runs every point of @p spec that @p store_path does not already
/// contain; appends the new results (in expansion order) to the store.
/// A point that throws is retried and then quarantined per @p policy —
/// the rest of the grid completes, and outcome.quarantined says how
/// many points were abandoned (resume re-offers them, since their keys
/// never reach the store).
RunOutcome run_campaign(const CampaignSpec& spec,
                        const std::string& store_path, unsigned jobs,
                        const Progress& progress = {},
                        const FaultPolicy& policy = {});

/// Rewrites @p store_path in canonical order — grid keys in expansion
/// order first, then foreign records in file order, corrupt lines
/// dropped — atomically (temp file + rename), re-emitting loaded lines
/// byte-for-byte. No-op (and no write at all) when the file already is
/// canonical, which every fault-free fresh run and suffix-resume is;
/// only interior gaps healed out of order, torn lines and duplicate
/// keys trigger the rewrite. This is what makes a quarantine → resume
/// sequence converge on bytes identical to a never-faulted run.
/// Returns true when the file was rewritten.
bool compact_store(const std::string& store_path,
                   const std::vector<RunPoint>& points);

/// In-memory variant for the CLI, bench harnesses and examples:
/// simulates the whole grid (no store involved) and returns results in
/// expansion order.
[[nodiscard]] std::vector<PointResult> run_points(
    const std::vector<RunPoint>& points, unsigned jobs);

/// run_points over expand(@p spec), collected into an in-memory store
/// that a ResultGrid can read (jobs 0 = auto).
[[nodiscard]] ResultStore run_in_memory(const CampaignSpec& spec,
                                        unsigned jobs = 0);

}  // namespace prestage::campaign
