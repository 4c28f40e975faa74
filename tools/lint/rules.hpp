// The determinism rule catalog.
//
// Each rule has a stable ID (`prestage-<name>`), the unit findings and
// suppressions are keyed on. Rules run over every scanned file
// unconditionally; the driver applies the config's severity / path
// scoping / NOLINT suppression on top, so fixtures can exercise a rule
// wherever the file happens to live.
//
//   prestage-unordered-iteration  iterating std::unordered_{map,set}
//                                 (range-for or .begin()) — iteration
//                                 order is nondeterministic and must
//                                 never feed a report, store line or
//                                 JSON document
//   prestage-wallclock            rand()/srand()/std::random_device,
//                                 time()/clock()/<chrono> clock reads:
//                                 wall-clock state outside the blessed
//                                 host-telemetry and test paths
//   prestage-pointer-order        pointer-keyed std::map/std::set,
//                                 pointer-element std::priority_queue,
//                                 std::hash/less/greater over pointers —
//                                 allocation addresses vary run to run
//   prestage-float-accumulation   += on a float/double local without a
//                                 nearby ordering comment: FP addition
//                                 is order-sensitive, so the iteration
//                                 order must be stated (or the finding
//                                 suppressed) where results feed stores
//   prestage-console-io           std::cout/cerr/clog, printf-family
//                                 writes to stdout/stderr from library
//                                 code — output must flow through the
//                                 sink/report layers
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "lint/lexer.hpp"

namespace prestage::lint {

struct Finding {
  std::string rule;
  std::string path;
  int line = 0;
  std::string message;
};

/// The rule the cross-file index serves.
inline constexpr std::string_view kUnorderedIteration =
    "prestage-unordered-iteration";

/// Names declared across the scanned tree that rules need to see
/// cross-file (a container declared in a header, iterated in a .cpp).
/// The driver indexes only the files kUnorderedIteration applies to, so
/// a name declared in an allow-listed file flags nothing elsewhere.
struct GlobalIndex {
  std::vector<std::string> unordered_names;  // sorted, unique

  [[nodiscard]] bool is_unordered(const std::string& name) const;
};

/// All rule IDs, in catalog order (the order findings are reported in
/// for a given line).
[[nodiscard]] const std::vector<std::string>& all_rule_ids();

/// Scans @p f for declarations other files' rules must know about.
void index_file(const FileScan& f, GlobalIndex& index);

/// Seals the index (sort + dedupe) after every file was indexed.
void finalize_index(GlobalIndex& index);

/// Runs every rule over @p f, appending raw findings (no severity, no
/// suppression — the driver owns those).
void run_rules(const FileScan& f, const GlobalIndex& index,
               std::vector<Finding>& out);

}  // namespace prestage::lint
