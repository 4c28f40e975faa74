// Command-line parsing for the `prestage` CLI.
//
// Every flag is one row of the table in options.cpp, next to its line
// in the usage text. --preset accepts any machine-composition spec the
// grammar parses — a named preset ("clgp-l0-pb16") or an ad-hoc
// composition over the prefetcher registry ("fdp+l0+pb16",
// "stream+l0@090") — and stores the canonical spelling. Technology
// nodes are addressed by their feature size ("090", "045", or the full
// "0.09um" form). Parsing never throws: errors are reported as a
// std::string message so main() can print usage alongside.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "cacti/tech.hpp"

namespace prestage::cli {

/// Parsed flags shared by every subcommand.
struct Options {
  std::string preset = "clgp-l0-pb16";  ///< canonicalized composition
  cacti::TechNode node = cacti::TechNode::um045;
  std::uint64_t l1i_size = 4096;
  std::uint64_t instructions = 0;  ///< 0 -> sim::default_instructions()
  std::vector<std::string> benchmarks;     ///< empty -> command default
  std::vector<std::uint64_t> sizes;        ///< empty -> paper_l1_sizes()
  std::string json_path;  ///< empty -> no JSON; "-" -> stdout
  unsigned jobs = 0;      ///< --jobs/-j: worker threads (0 = all cores)

  // --- trace subcommands ------------------------------------------------
  std::string trace_path;    ///< --trace: input file (replay/info)
  std::string out_path;      ///< --out: output file (record, report)
  std::string trace_format;  ///< --format: auto|native|champsim
  std::uint64_t max_records = 0;  ///< --max-records: import cap (0 = all)

  // --- campaign subcommands ---------------------------------------------
  std::string campaign;       ///< --name: campaign from the registry
  std::string store_path;     ///< --store: result store (JSONL)
  std::string baseline_path;  ///< --baseline: compare reference store
  double threshold_pct = 2.0;  ///< --threshold: regression bound (%)

  // --- fault tolerance (campaign run/resume) ------------------------------
  unsigned retries = 1;   ///< --retries: extra attempts before quarantine
  bool strict = false;    ///< --strict: fail fast, no retry/quarantine
  bool durable = false;   ///< --durable: fsync store/sidecar per line
  /// --point-budget: per-point host-seconds watchdog budget (0 = off).
  double point_budget_seconds = 0.0;

  // --- sample subcommands -------------------------------------------------
  // All zeros mean "resolve a default against the instruction budget"
  // (sample::SamplingParams::resolve), so the flags below only pin knobs.
  std::uint64_t sample_interval = 0;  ///< --interval: BBV interval length
  std::uint32_t bbv_dim = 0;          ///< --dim: projected BBV dimension
  std::uint32_t max_clusters = 0;     ///< --max-k: k-means upper bound
  std::uint32_t warm_lines = 0;       ///< --warm-lines: checkpoint window
  std::uint32_t warmup_intervals = 0;  ///< --warmup: detailed-warmup depth
  std::string plan_path;              ///< --plan: PSCK checkpoint to run
};

/// Result of parsing argv: options on success, message on failure.
struct ParseResult {
  Options options;
  std::string error;  ///< empty on success
  bool help = false;  ///< --help / -h was given
};

/// Parses the flags following the subcommand word.
[[nodiscard]] ParseResult parse_options(int argc, char** argv, int first);

/// The usage text: every command and every flag.
void print_usage(std::ostream& out);

/// Splits "a,b,c" into trimmed non-empty tokens.
[[nodiscard]] std::vector<std::string> split_csv(std::string_view text);

}  // namespace prestage::cli
