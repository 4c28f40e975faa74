// Correctness of a finished campaign store, checked after every run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "campaign/spec.hpp"

namespace perfbench {

struct StoreCheck {
  std::size_t attempted = 0;  ///< expanded points
  std::size_t failed = 0;     ///< points missing, quarantined or invalid
  std::vector<std::string> problems;  ///< the first few, for the log
  std::string digest;   ///< FNV-1a 64 of the store bytes, 16 hex digits
  std::uint64_t bytes = 0;
};

/// Checks the store at @p store_path against the grid @p points:
///  - every expanded key is in the store, no line is corrupt, nothing
///    was quarantined (@p quarantined, and no `.failures` sidecar);
///  - per point: the fetch-source sum equals lines_fetched, committed
///    instructions reach the budget, IPC is positive, and a sampled
///    point carries a positive error bar.
/// A point breaking any of these (quarantined ones are missing) counts
/// once toward `failed`; each corrupt line counts too.
[[nodiscard]] StoreCheck check_store(
    const std::vector<prestage::campaign::RunPoint>& points,
    const std::string& store_path, std::size_t quarantined);

/// The whole file at @p path (empty when it does not exist).
[[nodiscard]] std::string read_file(const std::string& path);

}  // namespace perfbench
