// PSCK v1: the versioned binary checkpoint format for sampling plans.
//
// A checkpoint file carries everything needed to execute a sampled run
// without re-profiling: the resolved parameters, the slice table with
// per-slice warm-up line streams, and optional opaque machine-state
// blobs saved through IPrefetcher::save_state (tagged with the scheme
// name so restore never feeds one scheme's bytes to another).
//
// Format policy: little-endian, fixed field order, version bumped on any
// layout change; readers reject unknown magic/version and truncated
// files with SimError rather than guessing. v1 layout:
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
//   u32 state_count, per state: u32 scheme_len + bytes, u32 blob_len + bytes
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sample/plan.hpp"

namespace prestage::sample {

inline constexpr std::uint32_t kCheckpointVersion = 1;

/// Opaque saved machine state, tagged by the prefetcher scheme name.
struct SavedMachineState {
  std::string scheme;
  std::vector<std::uint8_t> bytes;
};

/// A plan plus any saved machine state — the unit PSCK serializes.
struct Checkpoint {
  SamplePlan plan;
  std::vector<SavedMachineState> states;
};

/// Serializes to the PSCK v1 byte layout (bic_by_k is diagnostics-only
/// and not stored).
[[nodiscard]] std::vector<std::uint8_t> serialize_checkpoint(
    const Checkpoint& checkpoint);

/// Parses PSCK bytes; throws SimError on bad magic, unsupported version,
/// truncation, or a slice / warm-line / state count that cannot fit in
/// the bytes left (checked before anything is reserved).
[[nodiscard]] Checkpoint deserialize_checkpoint(
    const std::uint8_t* data, std::size_t size);

/// File I/O wrappers; throw SimError on any filesystem failure.
void write_checkpoint_file(const std::string& path,
                           const Checkpoint& checkpoint);
[[nodiscard]] Checkpoint read_checkpoint_file(const std::string& path);

}  // namespace prestage::sample
