// Quarantine sidecar for campaign stores.
//
// A run point that keeps throwing after its retries is *quarantined*:
// the engine records what failed (and how) as one JSONL line in
// `<store>.failures` and moves on, so one poisoned point cannot abort a
// grid. Quarantined keys never enter the result store, which is exactly
// what makes `campaign resume` re-offer them — and once a later run
// succeeds, the store gains the key and the old failure records read as
// *recovered* history (`campaign status` reports both buckets).
//
// Failure records flush through the same ordered-prefix discipline as
// results, so for deterministic failures (key=-seeded faults, config
// errors) the sidecar bytes are worker-count-independent too.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "campaign/store.hpp"

namespace prestage {
class JsonWriter;
}

namespace prestage::campaign {

/// One quarantined run point.
struct FailureRecord {
  std::string key;          ///< RunPoint::key() content hash
  std::string config;       ///< canonical machine-config string
  std::string benchmark;
  std::string error_class;  ///< FaultInjected | PointCancelled |
                            ///< SimError | JsonError | Exception
  std::string message;      ///< the final attempt's what()
  std::uint64_t attempts = 0;  ///< attempts consumed (retries + 1)
};

/// The quarantine sidecar path for a result store.
[[nodiscard]] std::string failures_log_path(const std::string& store_path);

/// Writes @p r as one JSON object. The sidecar line and the `failures`
/// array of `campaign run --json` both come from here.
void write_failure(JsonWriter& json, const FailureRecord& r);

/// Serializes to one compact JSON line (no trailing newline).
[[nodiscard]] std::string encode_failure_line(const FailureRecord& r);

/// Parses one sidecar line; throws json::JsonError when malformed.
[[nodiscard]] FailureRecord decode_failure_line(std::string_view line);

/// The loaded quarantine sidecar (RecordLog: corrupt lines counted,
/// never fatal).
using FailureLog = RecordLog<FailureRecord, decode_failure_line>;

}  // namespace prestage::campaign
