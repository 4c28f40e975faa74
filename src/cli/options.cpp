#include "cli/options.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>
#include <ostream>
#include <type_traits>

#include "common/types.hpp"
#include "prefetch/registry.hpp"
#include "sim/presets.hpp"

namespace prestage::cli {

std::vector<std::string> split_csv(std::string_view text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string_view::npos) comma = text.size();
    std::string_view token = text.substr(start, comma - start);
    while (!token.empty() && std::isspace(static_cast<unsigned char>(
                                 token.front()))) {
      token.remove_prefix(1);
    }
    while (!token.empty() &&
           std::isspace(static_cast<unsigned char>(token.back()))) {
      token.remove_suffix(1);
    }
    if (!token.empty()) out.emplace_back(token);
    start = comma + 1;
  }
  return out;
}

namespace {

struct Flag;

/// Reads a flag's value into its Options member; returns the error
/// message, or an empty string.
using Setter = std::string (*)(const Flag& flag, std::string_view value,
                               Options& opt);

/// Where a flag's value comes from.
enum class Arg : std::uint8_t {
  Next,      ///< the next argument
  Attached,  ///< the next argument, or glued to the short spelling (-j4)
  None,      ///< a switch: no value
  Help,      ///< stops parsing; main() prints the usage text
};

/// One row of the flag table.
struct Flag {
  std::string_view name;
  Setter set = nullptr;
  /// What a malformed value gets: "<name> <expects>, got '<value>'".
  std::string_view expects{};
  std::string_view alias{};  ///< a short spelling, or empty
  Arg arg = Arg::Next;
};

std::string malformed(const Flag& f, std::string_view value) {
  return std::string(f.name) + " " + std::string(f.expects) + ", got '" +
         std::string(value) + "'";
}

template <auto Member>
std::string text(const Flag&, std::string_view value, Options& opt) {
  opt.*Member = value;
  return {};
}

template <auto Member>
std::string on(const Flag&, std::string_view, Options& opt) {
  opt.*Member = true;
  return {};
}

/// A comma list of names, appended; an empty list is malformed (it
/// would read as "flag not given").
template <auto Member>
std::string names(const Flag& f, std::string_view value, Options& opt) {
  std::vector<std::string> list = split_csv(value);
  if (list.empty()) return malformed(f, value);
  for (std::string& name : list) (opt.*Member).push_back(std::move(name));
  return {};
}

/// A count in Lo..Hi, K/M suffixes ok. parse_u64 refuses 0, so a range
/// from 0 takes it as the bare word "0".
template <auto Member, std::uint64_t Lo = 1,
          std::uint64_t Hi = std::numeric_limits<std::uint64_t>::max()>
std::string count(const Flag& f, std::string_view value, Options& opt) {
  static_assert(Lo <= 1, "parse_u64 reads counts from 1");
  const auto n = Lo == 0 && value == "0" ? std::optional<std::uint64_t>(0)
                                         : sim::parse_u64(value);
  if (!n || *n > Hi) return malformed(f, value);
  opt.*Member =
      static_cast<std::remove_reference_t<decltype(opt.*Member)>>(*n);
  return {};
}

/// A power-of-two byte count, K/M suffixes ok.
template <auto Member>
std::string bytes(const Flag& f, std::string_view value, Options& opt) {
  const auto size = sim::parse_u64(value);
  if (!size || !is_pow2(*size)) return malformed(f, value);
  opt.*Member = *size;
  return {};
}

/// A comma list of power-of-two byte counts, appended; an error names
/// the first bad one, or the whole value when the list is empty.
template <auto Member>
std::string byte_list(const Flag& f, std::string_view value, Options& opt) {
  const std::vector<std::string> list = split_csv(value);
  if (list.empty()) return malformed(f, value);
  for (const std::string& token : list) {
    const auto size = sim::parse_u64(token);
    if (!size || !is_pow2(*size)) return malformed(f, token);
    (opt.*Member).push_back(*size);
  }
  return {};
}

/// A finite number of at least 0, or above 0 when Positive.
template <auto Member, bool Positive>
std::string real(const Flag& f, std::string_view value, Options& opt) {
  const std::string text(value);
  char* end = nullptr;
  const double x = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || !std::isfinite(x) ||
      x < 0.0 || (Positive && x == 0.0)) {
    return malformed(f, value);
  }
  opt.*Member = x;
  return {};
}

std::string trace_format(const Flag& f, std::string_view value,
                         Options& opt) {
  for (const std::string_view choice : {"auto", "native", "champsim"}) {
    if (value == choice) {
      opt.trace_format = value;
      return {};
    }
  }
  return malformed(f, value);
}

std::string node(const Flag&, std::string_view value, Options& opt) {
  const auto node = cacti::parse_node(value);
  if (!node) {
    return "unknown tech node '" + std::string(value) + "' (try 090 or 045)";
  }
  opt.node = *node;
  return {};
}

std::string preset(const Flag&, std::string_view value, Options& opt) {
  auto composition = sim::parse_spec(value);
  if (!composition) {
    // List what is actually registered — the registry is open, so the
    // valid set is not knowable statically.
    std::string error =
        "unknown preset '" + std::string(value) + "'; registered presets:";
    for (const std::string& name : sim::all_presets()) error += ' ' + name;
    error += "; prefetchers:";
    for (const auto& info :
         prefetch::PrefetcherRegistry::instance().entries()) {
      error += ' ' + info.name;
    }
    return error + " (compose like fdp+l0+pb16, see `prestage list`)";
  }
  if (composition->node) {
    // A spec-string node ("clgp@090") is exactly --node: fold it into
    // the node option so banners, JSON provenance and store rows all
    // report the node actually simulated.
    opt.node = *composition->node;
    composition->node.reset();
  }
  opt.preset = sim::canonical_name(*composition);
  return {};
}

// Every flag, in the order of the usage text below. Adding one is a row
// here plus its usage line.
constexpr Flag kFlags[] = {
    {"--preset", preset},
    {"--node", node},
    {"--l1", bytes<&Options::l1i_size>, "needs a power-of-two byte count"},
    {"--bench", names<&Options::benchmarks>,
     "needs a comma list of benchmark names"},
    {"--sizes", byte_list<&Options::sizes>, "needs power-of-two byte counts"},
    {"--instrs", count<&Options::instructions>, "needs a positive count"},
    {"--json", text<&Options::json_path>},
    {"--jobs", count<&Options::jobs, 0, 1024>,
     "needs a count in 0..1024 (0 = all cores)", "-j", Arg::Attached},
    {"--out", text<&Options::out_path>},
    {"--trace", text<&Options::trace_path>},
    {"--format", trace_format, "must be auto, native or champsim"},
    {"--max-records", count<&Options::max_records>, "needs a positive count"},
    {"--interval", count<&Options::sample_interval>,
     "needs a positive instruction count"},
    {"--dim", count<&Options::bbv_dim, 1, 4096>,
     "needs a dimension in 1..4096"},
    {"--max-k", count<&Options::max_clusters, 1, 64>,
     "needs a cluster cap in 1..64"},
    {"--warm-lines", count<&Options::warm_lines, 1, (1ULL << 20U)>,
     "needs a line count in 1..1M"},
    {"--warmup", count<&Options::warmup_intervals, 1, 64>,
     "needs an interval count in 1..64"},
    {"--plan", text<&Options::plan_path>},
    {"--name", text<&Options::campaign>},
    {"--store", text<&Options::store_path>},
    {"--baseline", text<&Options::baseline_path>},
    {"--threshold", real<&Options::threshold_pct, false>,
     "needs a non-negative percentage"},
    {"--retries", count<&Options::retries, 0, 16>, "needs a count in 0..16"},
    {.name = "--strict", .set = on<&Options::strict>, .arg = Arg::None},
    {.name = "--durable", .set = on<&Options::durable>, .arg = Arg::None},
    {"--point-budget", real<&Options::point_budget_seconds, true>,
     "needs a positive host-seconds budget"},
    {.name = "--help", .alias = "-h", .arg = Arg::Help},
};

/// The row @p arg spells. A value glued to an attached short spelling
/// ("-j4") goes to @p glued.
const Flag* find_flag(std::string_view arg, std::string_view& glued) {
  for (const Flag& f : kFlags) {
    if (arg == f.name) return &f;
    if (f.alias.empty() || !arg.starts_with(f.alias)) continue;
    if (arg.size() == f.alias.size()) return &f;
    if (f.arg == Arg::Attached) {
      glued = arg.substr(f.alias.size());
      return &f;
    }
  }
  return nullptr;
}

}  // namespace

ParseResult parse_options(int argc, char** argv, int first) {
  ParseResult result;
  for (int i = first; i < argc; ++i) {
    const std::string_view arg = argv[i];
    std::string_view value;  // empty unless glued on
    const Flag* flag = find_flag(arg, value);
    if (flag == nullptr) {
      result.error = "unknown flag '" + std::string(arg) + "'";
      return result;
    }
    if (flag->arg == Arg::Help) {
      result.help = true;
      return result;
    }
    if (flag->arg != Arg::None && value.empty()) {
      if (++i == argc) {
        result.error = "missing value for " + std::string(arg);
        return result;
      }
      value = argv[i];
    }
    result.error = flag->set(*flag, value, result.options);
    if (!result.error.empty()) return result;
  }
  return result;
}

void print_usage(std::ostream& out) {
  out << R"(usage: prestage <command> [flags]

commands:
  run    simulate one benchmark and print headline statistics
  suite  run the benchmark suite; report per-benchmark IPC + HMEAN
  sweep  sweep L1 I-cache sizes; report HMEAN IPC per size
  list   list presets, tech nodes and benchmarks
  trace  record | replay | info — capture a run to a trace file,
         replay a trace (native or raw ChampSim) through any
         preset, or inspect a trace file
  sample  profile | plan | run — phase-profile a workload into
         interval BBVs, cluster them into a sampling plan
         (optionally saved as a PSCK checkpoint with --out), or
         run one sampled point and reconstruct whole-run
         statistics with an error bar
  campaign  run | resume | status | compare | report — execute a
         declarative figure grid against a resumable JSONL store
         (`prestage list` names the campaigns), check its coverage,
         diff two stores for IPC regressions, or emit the
         BENCH_<name>.json figure report (with the host telemetry
         of the store's .perf sidecar) and print its chart
  faults  list — enumerate the fault-injection sites compiled
         into the I/O and execution paths, and what
         PRESTAGE_FAULTS currently arms (spec grammar:
         site:action[@trigger],... — see the README)

flags:
  --preset SPEC   machine composition: a named preset
                  (clgp-l0-pb16) or <prefetcher>[+l0][+ideal]
                  [+pipelined][+pb<N>][@node] over the registered
                  prefetchers — `prestage list` names both
                  (default clgp-l0-pb16)
  --node NODE     tech node: 180|130|090|065|045 (default 045)
  --l1 BYTES      L1 I-cache size, power of two, K/M suffixes ok (default 4096)
  --bench LIST    benchmark name(s), comma separated
  --sizes LIST    sweep sizes, comma separated (default paper axis)
  --instrs N      instructions per run (default $PRESTAGE_INSTRS or 120000)
  --json PATH     write a JSON report to PATH (`-` = stdout)
  --jobs N, -j N, -jN
                  worker threads (0 = all cores; default 0)

trace flags:
  --out PATH      trace record: output trace file
  --trace PATH    trace replay/info: input trace file
  --format F      auto|native|champsim (default: sniff the file)
  --max-records N cap on imported ChampSim records (default all)

sample flags:
  --interval N    BBV interval length in instructions (default
                  budget/40, clamped)
  --dim N         projected BBV dimension (default 16)
  --max-k N       k-means cluster cap (default 6)
  --warm-lines N  checkpoint warm-up window in cache lines (default 256)
  --warmup N      detailed warm-up depth in intervals (default 1)
  --out FILE      sample plan: write a PSCK checkpoint
  --plan FILE     sample run: execute a saved PSCK checkpoint

campaign flags:
  --name NAME     campaign from the registry (see `prestage list`)
  --store PATH    result store (default campaigns/<name>.jsonl;
                  compare: the candidate store)
  --baseline PATH compare: the reference store
  --threshold PCT compare: regression bound in percent (default 2)
  --out PATH      report: output file (default BENCH_<name>.json)

fault-tolerance flags (campaign run/resume):
  --retries N     extra attempts per failing point before it is
                  quarantined to <store>.failures (default 1)
  --strict        fail fast on the first point error (no retry,
                  no quarantine; restores pre-quarantine behaviour)
  --durable       fsync the store and its sidecars after every
                  appended line (crash-safe, slower)
  --point-budget S
                  per-point host-seconds watchdog budget; a point
                  exceeding it is cancelled and quarantined
  --help          this message

exit codes: 0 ok, 1 runtime error, 2 usage, 3 regression found,
            4 campaign completed with quarantined points
)";
}

}  // namespace prestage::cli
