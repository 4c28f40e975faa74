// PSCK v1: the versioned binary checkpoint format for sampling plans.
//
// A checkpoint file carries everything needed to execute a sampled run
// without re-profiling: the resolved parameters and the slice table with
// per-slice warm-up line streams.
//
// Format policy: little-endian (common/bytes.hpp), fixed field order,
// version bumped on any layout change; readers reject unknown
// magic/version and truncated files with SimError rather than guessing.
// v1 layout:
//
//   'PSCK' u32_version
//   u64 seed, u64 total_instructions
//   u64 interval_instructions, u32 dim, u32 max_clusters, u32 warm_lines,
//   u32 warmup_intervals
//   u32 name_len, name bytes (workload)
//   u64 intervals, u64 unique_blocks, u32 clusters, u32 slice_count
//   per slice:
//     u64 start, u64 instructions, u64 interval_index,
//     u32 cluster, f64 weight (IEEE bits), u64 warm_start,
//     u32 warm_count, u64 x warm
//   u32 state_count   always 0: no writer ever filled v1's machine-state
//                     section, and a nonzero count is refused
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sample/plan.hpp"

namespace prestage::sample {

inline constexpr std::uint32_t kCheckpointVersion = 1;

/// Serializes to the PSCK v1 byte layout (bic_by_k is diagnostics-only
/// and not stored).
[[nodiscard]] std::vector<std::uint8_t> serialize_checkpoint(
    const SamplePlan& plan);

/// Parses PSCK bytes; throws SimError on bad magic, unsupported version,
/// truncation, a slice or warm-line count that cannot fit in the bytes
/// left (checked before anything is reserved), or a nonzero state count.
[[nodiscard]] SamplePlan deserialize_checkpoint(const std::uint8_t* data,
                                                std::size_t size);

/// File I/O wrappers; throw SimError on any filesystem failure.
void write_checkpoint_file(const std::string& path, const SamplePlan& plan);
[[nodiscard]] SamplePlan read_checkpoint_file(const std::string& path);

}  // namespace prestage::sample
