// Host-throughput sidecar for campaign stores.
//
// The result store must stay byte-identical across reruns and worker
// counts (that property is what makes campaigns resumable and
// CI-diffable), so nondeterministic wall-clock telemetry cannot live in
// its lines. Instead every executed point appends one JSONL record to
// `<store>.perf`. Records are never deduplicated: a point that was
// executed twice (killed before its ordered flush, recomputed on resume)
// really did cost host time twice, and total host seconds should say so.
// `campaign report` reads the sidecar into its `host` section.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "campaign/spec.hpp"
#include "campaign/store.hpp"

namespace prestage {
class JsonWriter;
}

namespace prestage::campaign {

/// One executed run point's host telemetry. Older sidecars also carry
/// per-record sampled fields; the decoder ignores them, because the
/// report derives the sampled speedup from the store instead.
struct PerfRecord {
  std::string key;        ///< RunPoint::key() content hash
  std::string config;     ///< canonical machine-config string
  std::string benchmark;
  double host_seconds = 0.0;
  double minstr_per_sec = 0.0;
};

/// The sidecar path for a result store.
[[nodiscard]] std::string perf_log_path(const std::string& store_path);

/// Serializes to one compact JSON line (no trailing newline).
[[nodiscard]] std::string encode_perf_line(const PerfRecord& r);

/// Parses one sidecar line; throws json::JsonError when malformed.
[[nodiscard]] PerfRecord decode_perf_line(std::string_view line);

/// Extracts the sidecar record of one stored result.
[[nodiscard]] PerfRecord perf_record_of(const PointResult& r);

/// The loaded sidecar (RecordLog: corrupt lines counted, never fatal).
using PerfLog = RecordLog<PerfRecord, decode_perf_line>;

/// Aggregate over a set of records: total worker-seconds and the
/// seconds-weighted Minstr/s (total simulated instructions over total
/// worker-seconds).
struct PerfAggregate {
  std::size_t points = 0;
  double host_seconds = 0.0;
  double minstr_per_sec = 0.0;
};

/// Per-config aggregates in config-name order (deterministic given the
/// same record multiset), plus the overall total over every record.
struct PerfSummary {
  PerfAggregate total;
  std::size_t dropped_lines = 0;  ///< corrupt sidecar lines skipped
  std::vector<std::pair<std::string, PerfAggregate>> per_config;
};

[[nodiscard]] PerfSummary summarize_perf(const PerfLog& log);

/// Only the records whose key belongs to @p spec's expanded grid. A
/// sidecar at a reused store path accumulates generations (different
/// --instrs/seed grids append fresh keys); reports must scope to the
/// grid they describe so a stale generation cannot inflate the totals.
/// Same-grid duplicates (kill/resume recomputation) are kept — that
/// host time was really spent on *this* grid.
[[nodiscard]] PerfLog scope_to_spec(const PerfLog& log,
                                    const CampaignSpec& spec);

/// Writes a whole summary into the currently open object: the total's
/// points/host_seconds/minstr_per_sec and dropped_lines, followed by a
/// "per_config" array of {config, points, host_seconds, minstr_per_sec}
/// objects.
void write_perf_summary(JsonWriter& json, const PerfSummary& summary);

}  // namespace prestage::campaign
