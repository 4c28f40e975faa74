// Smoke tests for the `prestage` CLI: spawns the real binary (path baked
// in via PRESTAGE_CLI_PATH) on a short instruction budget and validates
// the JSON reports with the strict common/json.hpp parser, so a
// malformed document or a missing field fails loudly in CI.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"

namespace {

using JsonValue = prestage::json::Value;

JsonValue parse_json(const std::string& text) {
  return prestage::json::parse(text);
}

// --- harness ---------------------------------------------------------------

std::string cli_path() { return PRESTAGE_CLI_PATH; }

/// Per-test-case file path: gtest_discover_tests registers each case as
/// its own ctest test, and `ctest -j` runs them concurrently against the
/// same TempDir, so fixed names would let tests clobber each other.
std::string test_file(const std::string& name) {
  const auto* info = testing::UnitTest::GetInstance()->current_test_info();
  return testing::TempDir() + "/" + info->test_suite_name() + "." +
         info->name() + "." + name;
}

/// Runs `<env> prestage <args>` (env may carry VAR=value assignments for
/// the child only), captures stdout+stderr, returns the exit code.
int run_cli_env(const std::string& env, const std::string& args,
                std::string* output) {
  const std::string out_file = test_file("cli_out.txt");
  const std::string command = (env.empty() ? "" : env + " ") + cli_path() +
                              " " + args + " > " + out_file + " 2>&1";
  const int status = std::system(command.c_str());
  std::ifstream in(out_file);
  std::stringstream ss;
  ss << in.rdbuf();
  *output = ss.str();
  if (status == -1) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Runs `prestage <args>`, captures stdout+stderr, returns the exit code.
int run_cli(const std::string& args, std::string* output) {
  return run_cli_env("", args, output);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string fixture_path() {
  return PRESTAGE_TEST_DATA_DIR "/fixture.champsim.trace";
}

/// Every --flag the usage text names, --help included.
std::set<std::string> documented_flags() {
  std::string usage;
  EXPECT_EQ(run_cli("--help", &usage), 0) << usage;
  const std::regex token("--[a-z0-9-]+");
  std::set<std::string> flags;
  for (auto it = std::sregex_iterator(usage.begin(), usage.end(), token);
       it != std::sregex_iterator(); ++it) {
    flags.insert(it->str());
  }
  return flags;
}

void check_breakdown(const JsonValue& sb) {
  for (const char* source : {"PB", "il0", "il1", "ul2", "Mem"}) {
    ASSERT_TRUE(sb.has(source)) << "missing source " << source;
    EXPECT_EQ(sb.at(source).kind, JsonValue::Kind::Number);
  }
}

TEST(CliSmoke, RunEmitsHeadlineStatsAndJson) {
  const std::string json_file = test_file("run.json");
  std::string output;
  const int rc = run_cli(
      "run --preset clgp-l0-pb16 --bench eon --instrs 2000 --json " +
          json_file,
      &output);
  ASSERT_EQ(rc, 0) << output;
  EXPECT_NE(output.find("IPC"), std::string::npos) << output;

  const JsonValue doc = parse_json(read_file(json_file));
  EXPECT_EQ(doc.at("schema").string, "prestage-run-v1");
  EXPECT_EQ(doc.at("preset").string, "clgp-l0-pb16");
  EXPECT_EQ(doc.at("instructions").number, 2000.0);
  const JsonValue& result = doc.at("result");
  EXPECT_EQ(result.at("benchmark").string, "eon");
  EXPECT_GT(result.at("ipc").number, 0.0);
  EXPECT_GE(result.at("instructions").number, 2000.0);
  // Host-throughput telemetry: wall clock really elapsed, so both
  // fields must be strictly positive.
  EXPECT_GT(result.at("host_seconds").number, 0.0);
  EXPECT_GT(result.at("minstr_per_sec").number, 0.0);
  // Every statistic the run keeps reaches the JSON, host diagnostics
  // included.
  for (const char* key : {"recoveries", "blocks_predicted", "lines_fetched",
                          "prefetches_issued", "l2_hits", "l2_misses",
                          "dcache_misses", "cycles_skipped"}) {
    ASSERT_TRUE(result.has(key)) << "missing " << key;
    EXPECT_EQ(result.at(key).kind, JsonValue::Kind::Number) << key;
  }
  check_breakdown(result.at("fetch_sources"));
  check_breakdown(result.at("prefetch_sources"));
}

TEST(CliSmoke, SuiteJsonCoversAllBenchmarksWithHmean) {
  const std::string json_file = test_file("suite.json");
  std::string output;
  const int rc = run_cli(
      "suite --preset clgp-l0-pb16 --instrs 1500 --json " + json_file,
      &output);
  ASSERT_EQ(rc, 0) << output;

  const JsonValue doc = parse_json(read_file(json_file));
  EXPECT_EQ(doc.at("schema").string, "prestage-suite-v1");
  const JsonValue& benchmarks = doc.at("benchmarks");
  ASSERT_EQ(benchmarks.kind, JsonValue::Kind::Array);
  ASSERT_EQ(benchmarks.array.size(), 12u) << "full suite expected";
  for (const JsonValue& r : benchmarks.array) {
    EXPECT_FALSE(r.at("benchmark").string.empty());
    EXPECT_GT(r.at("ipc").number, 0.0) << r.at("benchmark").string;
    check_breakdown(r.at("fetch_sources"));
  }
  EXPECT_GT(doc.at("hmean_ipc").number, 0.0);
  // The HMEAN must sit within the per-benchmark range.
  double min_ipc = 1e9, max_ipc = 0.0;
  for (const JsonValue& r : benchmarks.array) {
    min_ipc = std::min(min_ipc, r.at("ipc").number);
    max_ipc = std::max(max_ipc, r.at("ipc").number);
  }
  EXPECT_GE(doc.at("hmean_ipc").number, min_ipc);
  EXPECT_LE(doc.at("hmean_ipc").number, max_ipc);
  // Aggregated host telemetry sums the per-benchmark worker time.
  const JsonValue& host = doc.at("host");
  EXPECT_GT(host.at("host_seconds").number, 0.0);
  EXPECT_GT(host.at("minstr_per_sec").number, 0.0);
  double summed = 0.0;
  for (const JsonValue& r : benchmarks.array) {
    summed += r.at("host_seconds").number;
  }
  // Relative tolerance: the values round-tripped through the writer's
  // %.10g, so the absolute error scales with the (host-dependent) sum.
  EXPECT_NEAR(host.at("host_seconds").number, summed,
              1e-9 + 1e-6 * summed);
}

TEST(CliSmoke, SweepJsonHasOnePointPerSize) {
  std::string output;
  const int rc = run_cli(
      "sweep --preset base --bench eon --sizes 1K,4K --instrs 1000 "
      "--json -",
      &output);
  ASSERT_EQ(rc, 0) << output;

  // With --json - the document owns stdout: the human chart is
  // suppressed, so the whole capture must parse as one JSON value.
  const JsonValue doc = parse_json(output);
  EXPECT_EQ(doc.at("schema").string, "prestage-sweep-v1");
  const JsonValue& points = doc.at("points");
  ASSERT_EQ(points.array.size(), 2u);
  EXPECT_EQ(points.array[0].at("l1i_size").number, 1024.0);
  EXPECT_EQ(points.array[1].at("l1i_size").number, 4096.0);
  for (const JsonValue& p : points.array) {
    EXPECT_GT(p.at("hmean_ipc").number, 0.0);
  }
}

// Pinned numbers for `suite` and `sweep`: these commands run their grid
// through the campaign engine, and must report exactly what the
// per-benchmark machines simulate. Values are the %.10g JSON renderings.

struct PinnedRun {
  const char* benchmark;
  double ipc;
  double cycles;
  double pb, il0, il1, ul2, mem;  ///< fetch sources
};

void expect_sources(const JsonValue& sb, double pb, double il0, double il1,
                    double ul2, double mem) {
  EXPECT_EQ(sb.at("PB").number, pb);
  EXPECT_EQ(sb.at("il0").number, il0);
  EXPECT_EQ(sb.at("il1").number, il1);
  EXPECT_EQ(sb.at("ul2").number, ul2);
  EXPECT_EQ(sb.at("Mem").number, mem);
}

TEST(CliSmoke, SuiteNumbersArePinned) {
  std::string output;
  ASSERT_EQ(run_cli("suite --preset clgp-l0 --bench eon,gzip --instrs 1500 "
                    "-j2 --json -",
                    &output),
            0)
      << output;
  const JsonValue doc = parse_json(output);
  const PinnedRun kPins[] = {
      {"eon", 0.2783027608, 5397, 192, 9, 0, 6, 1},
      {"gzip", 0.3510042036, 4282, 174, 5, 1, 7, 2},
  };
  const JsonValue& benchmarks = doc.at("benchmarks");
  ASSERT_EQ(benchmarks.array.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const JsonValue& r = benchmarks.array[i];
    const PinnedRun& pin = kPins[i];
    EXPECT_EQ(r.at("benchmark").string, pin.benchmark);
    EXPECT_EQ(r.at("ipc").number, pin.ipc) << pin.benchmark;
    EXPECT_EQ(r.at("cycles").number, pin.cycles) << pin.benchmark;
    expect_sources(r.at("fetch_sources"), pin.pb, pin.il0, pin.il1, pin.ul2,
                   pin.mem);
  }
  EXPECT_EQ(doc.at("hmean_ipc").number, 0.3104540215);
  expect_sources(doc.at("fetch_sources"), 366, 14, 1, 13, 3);
}

TEST(CliSmoke, SweepNumbersArePinned) {
  std::string output;
  ASSERT_EQ(run_cli("sweep --preset fdp-l0 --bench eon,gzip --sizes 1K,4K "
                    "--instrs 1500 -j 2 --json -",
                    &output),
            0)
      << output;
  const JsonValue doc = parse_json(output);
  const JsonValue& points = doc.at("points");
  ASSERT_EQ(points.array.size(), 2u);
  EXPECT_EQ(points.array[0].at("l1i_size").number, 1024.0);
  EXPECT_EQ(points.array[0].at("hmean_ipc").number, 0.3155385883);
  EXPECT_EQ(points.array[1].at("l1i_size").number, 4096.0);
  EXPECT_EQ(points.array[1].at("hmean_ipc").number, 0.3150424961);
}

TEST(CliSmoke, ListNamesEveryPresetAndPrefetcher) {
  std::string output;
  const int rc = run_cli("list", &output);
  ASSERT_EQ(rc, 0) << output;
  for (const char* name :
       {"base", "base-ideal", "base-l0", "base-pipelined", "fdp", "fdp-l0",
        "fdp-l0-pb16", "clgp", "clgp-l0", "clgp-l0-pb16", "next-line",
        "next-line-l0", "stream", "stream-l0"}) {
    EXPECT_NE(output.find(name), std::string::npos) << name;
  }
  EXPECT_NE(output.find("prefetchers"), std::string::npos) << output;
}

TEST(CliSmoke, StreamPresetRunsEndToEnd) {
  // The registry's proof-of-extension scheme, reached purely through
  // the composition grammar (no CLI/preset edits were needed to add it).
  const std::string json_file = test_file("stream.json");
  std::string output;
  const int rc = run_cli(
      "run --preset stream-l0 --bench eon --instrs 2000 --json " +
          json_file,
      &output);
  ASSERT_EQ(rc, 0) << output;
  const JsonValue doc = parse_json(read_file(json_file));
  EXPECT_EQ(doc.at("preset").string, "stream-l0");
  EXPECT_GT(doc.at("result").at("ipc").number, 0.0);
}

TEST(CliSmoke, CompositionSpellingsCanonicalize) {
  // "fdp+l0" is the same machine as "fdp-l0"; reports carry the
  // canonical spelling so downstream keys never fork.
  std::string output;
  const int rc = run_cli(
      "run --preset fdp+l0 --bench eon --instrs 1000 --json -", &output);
  ASSERT_EQ(rc, 0) << output;
  EXPECT_EQ(parse_json(output).at("preset").string, "fdp-l0");
}

TEST(CliSmoke, BadInputFailsWithUsage) {
  std::string output;
  EXPECT_NE(run_cli("frobnicate", &output), 0);
  EXPECT_NE(output.find("usage:"), std::string::npos);

  EXPECT_NE(run_cli("run --preset no-such-preset", &output), 0);
  EXPECT_NE(output.find("unknown preset"), std::string::npos);
  // The error enumerates what IS registered (the set is open, so it is
  // built from the registry, not hardcoded in the message).
  for (const char* name : {"clgp-l0-pb16", "next-line", "stream"}) {
    EXPECT_NE(output.find(name), std::string::npos) << output;
  }

  EXPECT_NE(run_cli("run --bench no-such-benchmark", &output), 0);
  EXPECT_NE(output.find("unknown benchmark"), std::string::npos);

  // An attached worker count gets the same range check as "-j N".
  for (const char* jobs : {"-jx", "-j2000"}) {
    EXPECT_EQ(run_cli(std::string("suite --instrs 1000 ") + jobs, &output),
              2)
        << jobs;
    EXPECT_NE(output.find("--jobs needs a count in 0..1024"),
              std::string::npos)
        << output;
    EXPECT_NE(output.find("usage:"), std::string::npos) << output;
  }
  EXPECT_EQ(run_cli("suite --instrs 1000 -j", &output), 2);
  EXPECT_NE(output.find("missing value for -j"), std::string::npos)
      << output;
}

TEST(CliSmoke, EmptyListIsAMalformedValue) {
  // An empty or all-comma list is refused, not read as "flag not given"
  // (which ran the whole suite, eon, or the paper's nine sizes).
  for (const auto& [args, flag] :
       {std::pair{"suite --bench , --instrs 1000", "--bench"},
        std::pair{"run --bench '' --instrs 1000", "--bench"},
        std::pair{"sweep --sizes '' --instrs 1000", "--sizes"}}) {
    std::string output;
    EXPECT_EQ(run_cli(args, &output), 2) << args << ": " << output;
    EXPECT_NE(output.find(std::string("prestage: ") + flag + " needs "),
              std::string::npos)
        << args << ": " << output;
  }
}

TEST(CliSmoke, EveryDocumentedFlagParses) {
  // `list` reads no flag, but a command refuses its flags only after
  // every value has parsed, so each --flag the usage text names must
  // parse there: --help prints the usage, a value flag asks for its
  // value, and a switch parses and is then refused. A usage line for a
  // flag the parser does not accept fails here.
  const std::set<std::string> flags = documented_flags();
  EXPECT_EQ(flags.size(), 27u) << "26 flags plus --help";
  std::size_t switches = 0;
  for (const std::string& flag : flags) {
    std::string output;
    const int rc = run_cli("list " + flag, &output);
    EXPECT_EQ(output.find("unknown flag"), std::string::npos) << output;
    if (flag == "--help") {
      EXPECT_EQ(rc, 0) << output;
      continue;
    }
    EXPECT_EQ(rc, 2) << flag << ": " << output;
    if (output.find("prestage: 'list' does not read " + flag + "\n") !=
        std::string::npos) {
      ++switches;
      continue;
    }
    EXPECT_NE(output.find("missing value for " + flag + "\n"),
              std::string::npos)
        << output;
  }
  EXPECT_EQ(switches, 2u) << "--strict and --durable";
  // A number that does not parse is refused by the flag's name.
  for (const char* flag :
       {"--l1", "--sizes", "--instrs", "--jobs", "--threshold", "--retries",
        "--point-budget", "--interval", "--dim", "--max-k", "--warm-lines",
        "--warmup", "--max-records"}) {
    std::string output;
    EXPECT_EQ(run_cli(std::string("list ") + flag + " x", &output), 2)
        << flag;
    EXPECT_NE(output.find(std::string("prestage: ") + flag + " "),
              std::string::npos)
        << output;
  }
}

TEST(CliSmoke, CommandsRefuseFlagsTheyDoNotRead) {
  // Each command here is given a flag it would drop: `run` replays no
  // trace, `campaign status` picks no benchmark, and `trace info`
  // simulates no machine.
  for (const auto& [args, refusal] :
       {std::pair{std::string("run --trace /nonexistent.pstr --instrs 2000"),
                  "'run' does not read --trace"},
        std::pair{std::string("campaign status --name smoke --bench gcc"),
                  "'campaign status' does not read --bench"},
        std::pair{"trace info --preset clgp --trace " + fixture_path(),
                  "'trace info' does not read --preset"}}) {
    std::string output;
    EXPECT_EQ(run_cli(args, &output), 2) << args << ": " << output;
    EXPECT_NE(output.find(std::string("prestage: ") + refusal + "\n"),
              std::string::npos)
        << args << ": " << output;
    EXPECT_NE(output.find("usage:"), std::string::npos) << output;
  }
  // Values parse first: a malformed one keeps its own message.
  std::string output;
  EXPECT_EQ(run_cli("run --trace x --instrs 0", &output), 2);
  EXPECT_NE(output.find("prestage: --instrs needs a positive count"),
            std::string::npos)
      << output;
  // The sample commands read --bench only without --trace.
  EXPECT_EQ(run_cli("sample plan --bench eon,gzip --trace " + fixture_path(),
                    &output),
            2);
  EXPECT_NE(output.find("prestage: `sample` takes --trace or --bench, not "
                        "both"),
            std::string::npos)
      << output;
}

TEST(CliSmoke, EachCommandReadsExactlyItsFlags) {
  // Every flag a command reads, given together, must reach the check
  // that stops the command before it simulates (an unknown benchmark or
  // campaign, a missing file, or --trace with --bench); every other
  // documented flag must be refused by name.
  const std::string gone = test_file("gone");
  const std::map<std::string, std::string> value = {
      {"--preset", "base"},   {"--node", "045"},
      {"--l1", "4K"},         {"--bench", "nope"},
      {"--sizes", "1K"},      {"--instrs", "1000"},
      {"--json", "-"},        {"--jobs", "1"},
      {"--out", gone},        {"--trace", gone},
      {"--format", "native"}, {"--max-records", "10"},
      {"--interval", "500"},  {"--dim", "16"},
      {"--max-k", "2"},       {"--warm-lines", "16"},
      {"--warmup", "1"},      {"--plan", gone},
      {"--name", "nope"},     {"--store", gone},
      {"--baseline", gone},   {"--threshold", "1"},
      {"--retries", "1"},     {"--strict", ""},
      {"--durable", ""},      {"--point-budget", "10"}};
  struct Row {
    const char* command;
    std::string reads;
    int rc;
    const char* stop;  ///< the check that stops the run with every flag
  };
  const std::string sampling =
      "--bench --instrs --json --trace --format --max-records --interval "
      "--dim --max-k --warm-lines --warmup";
  const std::string campaign_run =
      "--name --instrs --store --json --jobs --retries --strict --durable "
      "--point-budget";
  const char* not_both = "takes --trace or --bench, not both";
  const Row rows[] = {
      {"run", "--preset --node --l1 --bench --instrs --json", 2,
       "unknown benchmark"},
      {"suite", "--preset --node --l1 --bench --instrs --json --jobs", 2,
       "unknown benchmark"},
      {"sweep", "--preset --node --bench --sizes --instrs --json --jobs", 2,
       "unknown benchmark"},
      {"list", "", 0, "presets:"},
      {"trace record", "--preset --node --l1 --bench --instrs --json --out",
       2, "unknown benchmark"},
      {"trace replay",
       "--preset --node --l1 --instrs --json --trace --format --max-records",
       1, "cannot open"},
      {"trace info", "--trace --format --max-records --json", 1,
       "cannot open"},
      {"sample profile", sampling, 2, not_both},
      {"sample plan", sampling + " --out", 2, not_both},
      {"sample run", "--preset --node --l1 " + sampling + " --plan", 2,
       not_both},
      {"campaign run", campaign_run, 2, "unknown campaign"},
      {"campaign resume", campaign_run, 2, "unknown campaign"},
      {"campaign status", "--name --instrs --store --json", 2,
       "unknown campaign"},
      {"campaign compare", "--baseline --store --threshold --json", 2,
       "does not exist"},
      {"campaign report", "--name --instrs --store --out", 2,
       "unknown campaign"},
      {"faults list", "--json", 0, "prestage-faults-v1"},
  };
  std::set<std::string> documented = documented_flags();
  documented.erase("--help");
  for (const std::string& flag : documented) {
    ASSERT_EQ(value.count(flag), 1u) << "no test value for " << flag;
  }
  for (const Row& row : rows) {
    std::set<std::string> reads;
    std::string args = row.command;
    std::istringstream words(row.reads);
    for (std::string flag; words >> flag;) {
      reads.insert(flag);
      args += " " + flag + " " + value.at(flag);
    }
    std::string output;
    EXPECT_EQ(run_cli(args, &output), row.rc) << args << ": " << output;
    EXPECT_NE(output.find(row.stop), std::string::npos)
        << args << ": " << output;
    for (const std::string& flag : documented) {
      if (reads.count(flag) > 0) continue;
      const std::string refused =
          std::string(row.command) + " " + flag + " " + value.at(flag);
      EXPECT_EQ(run_cli(refused, &output), 2) << refused << ": " << output;
      EXPECT_NE(output.find(std::string("prestage: '") + row.command +
                            "' does not read " + flag + "\n"),
                std::string::npos)
          << refused << ": " << output;
    }
  }
}

// --- trace subcommands ------------------------------------------------------

TEST(CliTrace, RecordThenReplayReportsIdenticalStats) {
  const std::string trace_file_path = test_file("roundtrip.pstr");
  const std::string record_json = test_file("record.json");
  const std::string replay_json = test_file("replay.json");
  std::string output;

  int rc = run_cli("trace record --preset clgp-l0-pb16 --bench eon "
                   "--instrs 3000 --out " + trace_file_path + " --json " +
                       record_json,
                   &output);
  ASSERT_EQ(rc, 0) << output;
  EXPECT_NE(output.find("wrote"), std::string::npos) << output;

  rc = run_cli("trace replay --preset clgp-l0-pb16 --instrs 3000 --trace " +
                   trace_file_path + " --json " + replay_json,
               &output);
  ASSERT_EQ(rc, 0) << output;

  const JsonValue rec = parse_json(read_file(record_json));
  const JsonValue rep = parse_json(read_file(replay_json));
  EXPECT_EQ(rec.at("schema").string, "prestage-trace-record-v1");
  EXPECT_EQ(rep.at("schema").string, "prestage-trace-replay-v1");
  EXPECT_EQ(rec.at("trace").at("format").string, "native");
  EXPECT_EQ(rep.at("trace").at("format").string, "native");
  EXPECT_GT(rec.at("trace").at("records").number, 3000.0);

  // Bit-identical replay: IPC, cycles and every fetch-source count match.
  const JsonValue& a = rec.at("result");
  const JsonValue& b = rep.at("result");
  EXPECT_EQ(a.at("ipc").number, b.at("ipc").number);
  EXPECT_EQ(a.at("cycles").number, b.at("cycles").number);
  check_breakdown(a.at("fetch_sources"));
  for (const char* source : {"PB", "il0", "il1", "ul2", "Mem"}) {
    EXPECT_EQ(a.at("fetch_sources").at(source).number,
              b.at("fetch_sources").at(source).number)
        << source;
  }
}

/// FNV-1a 64 over a file's bytes.
std::uint64_t file_digest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c = 0; in.get(c);) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return h;
}

// `trace record` writes the same bytes as the parent binary that
// generated these pins: record count and an FNV-1a 64 digest of the file.
TEST(CliTrace, RecordedFileMatchesParentPin) {
  struct Pin {
    const char* args;
    double records;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {"--preset clgp-l0-pb16 --bench eon --instrs 3000", 3330,
       0x953c57f419c3d950ULL},
      {"--preset base --bench gcc --instrs 50000", 50200,
       0x71ed9d3476b52eefULL},
  };
  const std::string path = test_file("pin.pstr");
  for (const Pin& pin : pins) {
    std::string output;
    ASSERT_EQ(run_cli("trace record " + std::string(pin.args) + " --out " +
                          path + " --json -",
                      &output),
              0)
        << output;
    EXPECT_EQ(parse_json(output).at("trace").at("records").number,
              pin.records)
        << pin.args;
    EXPECT_EQ(file_digest(path), pin.digest) << pin.args;
  }
}

// `sample plan --out` writes the same PSCK bytes as the parent binary
// that generated this pin (the plan file CI writes): slice count, file
// size and an FNV-1a 64 digest of the file.
TEST(CliTrace, SamplePlanFileMatchesParentPin) {
  const std::string path = test_file("pin.psck");
  std::string output;
  ASSERT_EQ(run_cli("sample plan --bench eon --instrs 400000 --interval 5000 "
                    "--max-k 4 --warmup 3 --out " +
                        path + " --json -",
                    &output),
            0)
      << output;
  EXPECT_EQ(parse_json(output).at("slices").array.size(), 4u);
  EXPECT_EQ(read_file(path).size(), 8467u);
  EXPECT_EQ(file_digest(path), 0xf331443d98b18e78ULL);
}

TEST(CliTrace, InfoDescribesANativeTrace) {
  const std::string trace_file_path = test_file("info.pstr");
  std::string output;
  ASSERT_EQ(run_cli("trace record --bench gzip --instrs 1000 --out " +
                        trace_file_path,
                    &output),
            0)
      << output;

  ASSERT_EQ(run_cli("trace info --trace " + trace_file_path + " --json -",
                    &output),
            0)
      << output;
  const JsonValue doc = parse_json(output);
  EXPECT_EQ(doc.at("schema").string, "prestage-trace-info-v1");
  EXPECT_EQ(doc.at("format").string, "native");
  EXPECT_EQ(doc.at("version").number, 1.0);
  EXPECT_EQ(doc.at("benchmark").string, "gzip");
  EXPECT_GT(doc.at("records").number, 1000.0);
  EXPECT_GT(doc.at("streams").number, 0.0);
}

TEST(CliTrace, ChampSimFixtureReplaysAndDescribes) {
  std::string output;
  ASSERT_EQ(run_cli("trace info --trace " + fixture_path() + " --json -",
                    &output),
            0)
      << output;
  const JsonValue info = parse_json(output);
  EXPECT_EQ(info.at("format").string, "champsim");
  EXPECT_EQ(info.at("records").number, 182.0);
  EXPECT_EQ(info.at("unique_pcs").number, 10.0);

  ASSERT_EQ(run_cli("trace replay --preset clgp --instrs 1500 --trace " +
                        fixture_path() + " --json -",
                    &output),
            0)
      << output;
  const JsonValue doc = parse_json(output);
  EXPECT_EQ(doc.at("schema").string, "prestage-trace-replay-v1");
  EXPECT_EQ(doc.at("trace").at("format").string, "champsim");
  EXPECT_GT(doc.at("result").at("ipc").number, 0.0);
  check_breakdown(doc.at("result").at("fetch_sources"));
}

// The phase report over a trace: `sample profile` chops the replayed
// fixture into BBV intervals that tile the budget back to back.
TEST(CliTrace, SampleProfileReportsTheFixtureIntervals) {
  std::string output;
  ASSERT_EQ(run_cli("sample profile --trace " + fixture_path() +
                        " --instrs 2000 --interval 500 --json -",
                    &output),
            0)
      << output;
  const JsonValue doc = parse_json(output);
  EXPECT_EQ(doc.at("schema").string, "prestage-sample-profile-v1");
  EXPECT_EQ(doc.at("workload").string, "fixture.champsim.trace");
  EXPECT_EQ(doc.at("interval_instructions").as_u64(), 500u);
  EXPECT_EQ(doc.at("unique_blocks").as_u64(), 4u);
  const std::vector<JsonValue>& intervals = doc.at("intervals").array;
  ASSERT_EQ(intervals.size(), 4u);
  std::uint64_t next_start = 0;
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    const JsonValue& iv = intervals[i];
    EXPECT_EQ(iv.at("start").as_u64(), next_start) << "interval " << i;
    // An interval closes at a stream end once it holds the interval
    // length; the last one holds what is left of the budget.
    const std::uint64_t length = iv.at("instructions").as_u64();
    EXPECT_GE(length, i + 1 < intervals.size() ? 500u : 1u)
        << "interval " << i;
    next_start += length;
    // The fixture loops over one small program: adjacent intervals see
    // the same blocks.
    EXPECT_EQ(iv.has("similarity_to_prev"), i > 0) << "interval " << i;
    if (i > 0) {
      EXPECT_GT(iv.at("similarity_to_prev").as_number(), 0.99);
      EXPECT_LE(iv.at("similarity_to_prev").as_number(), 1.0 + 1e-9);
    }
  }
  EXPECT_EQ(next_start, doc.at("total_instructions").as_u64());
  EXPECT_GE(next_start, 2000u);
}

TEST(CliTrace, ErrorPathsFailLoudly) {
  std::string output;
  // Missing subcommand / unknown subcommand.
  EXPECT_EQ(run_cli("trace", &output), 2);
  EXPECT_NE(output.find("subcommand"), std::string::npos);
  EXPECT_EQ(run_cli("trace frobnicate", &output), 2);

  // record needs --out; replay/info need --trace.
  EXPECT_EQ(run_cli("trace record --bench eon --instrs 100", &output), 2);
  EXPECT_NE(output.find("--out"), std::string::npos);
  EXPECT_EQ(run_cli("trace replay", &output), 2);
  EXPECT_NE(output.find("--trace"), std::string::npos);
  EXPECT_EQ(run_cli("trace info", &output), 2);

  // Missing file.
  EXPECT_EQ(run_cli("trace replay --trace " + test_file("gone.pstr"),
                    &output),
            1);
  EXPECT_NE(output.find("cannot open"), std::string::npos) << output;

  // Bad magic (not a multiple of the ChampSim record size either).
  const std::string bad_magic = test_file("bad_magic.pstr");
  { std::ofstream(bad_magic) << "this is not a trace"; }
  EXPECT_EQ(run_cli("trace replay --trace " + bad_magic, &output), 1);
  EXPECT_NE(output.find("unrecognized format"), std::string::npos)
      << output;
  EXPECT_EQ(run_cli("trace info --format native --trace " + bad_magic,
                    &output),
            1);
  EXPECT_NE(output.find("bad magic"), std::string::npos) << output;

  // Unsupported version.
  const std::string bad_version = test_file("bad_version.pstr");
  {
    std::ofstream out(bad_version, std::ios::binary);
    const char bytes[] = {'P', 'S', 'T', 'R', 9, 0, 0, 0};
    out.write(bytes, sizeof(bytes));
  }
  EXPECT_EQ(run_cli("trace info --trace " + bad_version, &output), 1);
  EXPECT_NE(output.find("unsupported trace version"), std::string::npos)
      << output;

  // Bad --format value is a usage error.
  EXPECT_EQ(run_cli("trace info --trace x --format tar", &output), 2);
  EXPECT_NE(output.find("--format"), std::string::npos);
}

// --- campaign subcommands ----------------------------------------------------

TEST(CliCampaign, RunStatusCompareReportFlow) {
  const std::string store = test_file("smoke.jsonl");
  std::remove(store.c_str());  // stores append: drop earlier runs' files
  std::remove((store + ".perf").c_str());  // and their perf sidecars
  const std::string bench_json = test_file("BENCH_smoke.json");
  const std::string common =
      "--name smoke --instrs 900 --store " + store;
  std::string output;

  int rc = run_cli("campaign run " + common + " -j 2 --json -", &output);
  ASSERT_EQ(rc, 0) << output;
  const JsonValue run = parse_json(output);
  EXPECT_EQ(run.at("schema").string, "prestage-campaign-run-v1");
  EXPECT_EQ(run.at("total").number, 8.0);
  EXPECT_EQ(run.at("executed").number, 8.0);
  EXPECT_EQ(run.at("reused").number, 0.0);
  EXPECT_GT(run.at("host").at("host_seconds").number, 0.0);

  // Second run: everything is reused, nothing recomputes.
  rc = run_cli("campaign run " + common + " --json -", &output);
  ASSERT_EQ(rc, 0) << output;
  EXPECT_EQ(parse_json(output).at("reused").number, 8.0);

  rc = run_cli("campaign status " + common + " --json -", &output);
  ASSERT_EQ(rc, 0) << output;
  const JsonValue status = parse_json(output);
  EXPECT_EQ(status.at("schema").string, "prestage-campaign-status-v1");
  EXPECT_TRUE(status.at("complete").boolean);
  EXPECT_EQ(status.at("missing").number, 0.0);

  // A self-compare reports zero regressions and exits 0.
  rc = run_cli("campaign compare --baseline " + store + " --store " +
                   store + " --threshold 1.0 --json -",
               &output);
  ASSERT_EQ(rc, 0) << output;
  const JsonValue cmp = parse_json(output);
  EXPECT_EQ(cmp.at("schema").string, "prestage-campaign-compare-v1");
  EXPECT_EQ(cmp.at("common").number, 8.0);
  EXPECT_EQ(cmp.at("regressions").array.size(), 0u);

  rc = run_cli("campaign report " + common + " --out " + bench_json,
               &output);
  ASSERT_EQ(rc, 0) << output;
  const JsonValue report = parse_json(read_file(bench_json));
  EXPECT_EQ(report.at("schema").string, "prestage-campaign-report-v1");
  EXPECT_EQ(report.at("campaign").string, "smoke");
  EXPECT_EQ(report.at("kind").string, "ipc_vs_size");
  ASSERT_EQ(report.at("series").array.size(), 2u);
  for (const JsonValue& series : report.at("series").array) {
    ASSERT_EQ(series.at("hmean_ipc").array.size(), 2u);
    for (const JsonValue& v : series.at("hmean_ipc").array) {
      EXPECT_GT(v.number, 0.0);
    }
  }
  // The run above left a .perf sidecar, so the report carries the host
  // section: this host's telemetry for the grid.
  ASSERT_TRUE(report.has("host"));
  const JsonValue& host = report.at("host");
  EXPECT_EQ(host.at("points").number, 8.0);
  EXPECT_EQ(host.at("dropped_lines").number, 0.0)
      << "a fresh sidecar must report zero torn lines";
  EXPECT_GT(host.at("host_seconds").number, 0.0);
  EXPECT_GT(host.at("minstr_per_sec").number, 0.0);
  ASSERT_EQ(host.at("per_config").array.size(), 2u);  // base + clgp-l0
  double summed = 0.0;
  for (const JsonValue& c : host.at("per_config").array) {
    EXPECT_FALSE(c.at("config").string.empty());
    EXPECT_GT(c.at("minstr_per_sec").number, 0.0);
    summed += c.at("host_seconds").number;
  }
  // Relative tolerance: %.10g-serialized doubles on a possibly slow host.
  EXPECT_NEAR(host.at("host_seconds").number, summed, 1e-9 + 1e-6 * summed);

  // A second generation at the same store path (different --instrs →
  // different keys) appends 8 more sidecar records, but the report is
  // scoped to the grid it names: still 8 points, not 16.
  ASSERT_EQ(run_cli("campaign run --name smoke --instrs 450 --store " +
                        store + " -j 2",
                    &output),
            0)
      << output;
  ASSERT_EQ(run_cli("campaign report " + common + " --out -", &output), 0)
      << output;
  EXPECT_EQ(parse_json(output).at("host").at("points").number, 8.0);
}

TEST(CliCampaign, ResumeRecomputesOnlyMissingPoints) {
  const std::string store = test_file("resume.jsonl");
  std::remove(store.c_str());  // stores append: drop earlier runs' files
  const std::string common =
      "--name smoke --instrs 700 --store " + store;
  std::string output;
  ASSERT_EQ(run_cli("campaign run " + common + " -j 2", &output), 0)
      << output;
  const std::string fresh = read_file(store);

  // Keep only the first 5 of 8 lines (a killed run's surviving prefix).
  std::istringstream lines(fresh);
  std::ostringstream partial;
  std::string line;
  for (int i = 0; i < 5 && std::getline(lines, line); ++i) {
    partial << line << '\n';
  }
  { std::ofstream out(store, std::ios::trunc); out << partial.str(); }

  const int rc =
      run_cli("campaign resume " + common + " -j 4 --json -", &output);
  ASSERT_EQ(rc, 0) << output;
  const JsonValue resumed = parse_json(output);
  EXPECT_EQ(resumed.at("reused").number, 5.0);
  EXPECT_EQ(resumed.at("executed").number, 3.0);
  EXPECT_EQ(read_file(store), fresh) << "resume must reproduce the bytes";
}

TEST(CliCampaign, ErrorPathsFailLoudly) {
  std::string output;
  // Missing / unknown subcommand.
  EXPECT_EQ(run_cli("campaign", &output), 2);
  EXPECT_NE(output.find("subcommand"), std::string::npos);
  EXPECT_EQ(run_cli("campaign frobnicate", &output), 2);
  // `perf` is no campaign subcommand: host telemetry is read from the
  // report's host section.
  EXPECT_EQ(run_cli("campaign perf --name smoke", &output), 2);
  EXPECT_NE(output.find("unknown campaign subcommand 'perf'"),
            std::string::npos)
      << output;
  EXPECT_EQ(run_cli("campaign perf compare --baseline x", &output), 2);
  EXPECT_NE(output.find("unknown campaign subcommand 'perf'"),
            std::string::npos)
      << output;

  // Unknown campaign name, and the missing --name flag.
  EXPECT_EQ(run_cli("campaign run --name no-such-fig", &output), 2);
  EXPECT_NE(output.find("unknown campaign"), std::string::npos) << output;
  EXPECT_NE(output.find("fig5"), std::string::npos)
      << "error should list what exists: " << output;
  EXPECT_EQ(run_cli("campaign run", &output), 2);
  EXPECT_NE(output.find("--name"), std::string::npos);

  // Resume without a store is an error (run would create one).
  EXPECT_EQ(run_cli("campaign resume --name smoke --store " +
                        test_file("gone.jsonl"),
                    &output),
            1);
  EXPECT_NE(output.find("nothing to resume"), std::string::npos) << output;

  // Bad threshold values are usage errors.
  EXPECT_EQ(run_cli("campaign compare --baseline a --store b "
                    "--threshold -3",
                    &output),
            2);
  EXPECT_NE(output.find("--threshold"), std::string::npos) << output;
  EXPECT_EQ(run_cli("campaign compare --baseline a --store b "
                    "--threshold nan",
                    &output),
            2);

  // Compare with a missing store file.
  EXPECT_EQ(run_cli("campaign compare --baseline " +
                        test_file("nope.jsonl") + " --store " +
                        test_file("nope.jsonl"),
                    &output),
            2);
  EXPECT_NE(output.find("does not exist"), std::string::npos) << output;

  // Stores with no overlapping run points must not pass as "zero
  // regressions" — that is a misconfigured CI gate, not a clean result.
  const std::string empty_a = test_file("empty_a.jsonl");
  const std::string empty_b = test_file("empty_b.jsonl");
  { std::ofstream(empty_a) << "\n"; }
  { std::ofstream(empty_b) << "\n"; }
  EXPECT_EQ(run_cli("campaign compare --baseline " + empty_a +
                        " --store " + empty_b,
                    &output),
            2);
  EXPECT_NE(output.find("share no run points"), std::string::npos)
      << output;

  // Report over an absent/incomplete store.
  EXPECT_EQ(run_cli("campaign report --name smoke --store " +
                        test_file("empty.jsonl") + " --out " +
                        test_file("never.json"),
                    &output),
            1);
  EXPECT_NE(output.find("covers only"), std::string::npos) << output;

  // Bad --jobs value.
  EXPECT_EQ(run_cli("campaign run --name smoke --jobs many", &output), 2);
  EXPECT_NE(output.find("--jobs"), std::string::npos) << output;

  // Bad fault-tolerance flag values.
  EXPECT_EQ(run_cli("campaign run --name smoke --retries 99", &output), 2);
  EXPECT_NE(output.find("--retries"), std::string::npos) << output;
  EXPECT_EQ(run_cli("campaign run --name smoke --point-budget -1",
                    &output),
            2);
  EXPECT_NE(output.find("--point-budget"), std::string::npos) << output;
}

TEST(CliFaults, ListEmitsEverySiteAndTheArmedSpec) {
  std::string output;
  int rc = run_cli("faults list --json -", &output);
  ASSERT_EQ(rc, 0) << output;
  const JsonValue doc = parse_json(output);
  EXPECT_EQ(doc.at("schema").string, "prestage-faults-v1");
  EXPECT_EQ(doc.at("armed_count").number, 0.0);
  EXPECT_TRUE(doc.at("armed").array.empty());
  ASSERT_EQ(doc.at("sites").array.size(), 6u);
  bool saw_store_append = false;
  for (const JsonValue& site : doc.at("sites").array) {
    if (site.at("name").string == "store.append") {
      saw_store_append = true;
      EXPECT_TRUE(site.at("torn_supported").boolean);
    }
    if (site.at("name").string == "point.execute") {
      EXPECT_FALSE(site.at("torn_supported").boolean);
    }
  }
  EXPECT_TRUE(saw_store_append);

  rc = run_cli_env("PRESTAGE_FAULTS=point.execute:fail@key=beef",
                   "faults list --json -", &output);
  ASSERT_EQ(rc, 0) << output;
  const JsonValue armed = parse_json(output);
  EXPECT_EQ(armed.at("armed_count").number, 1.0);
  ASSERT_EQ(armed.at("armed").array.size(), 1u);
  EXPECT_EQ(armed.at("armed").array[0].string,
            "point.execute:fail@key=beef");
}

TEST(CliFaults, MalformedSpecIsAUsageError) {
  std::string output;
  // The spec is validated before any subcommand runs — even `list`,
  // which would not hit a single fault site.
  EXPECT_EQ(run_cli_env("PRESTAGE_FAULTS=bogus.site:fail", "list", &output),
            2);
  EXPECT_NE(output.find("bad PRESTAGE_FAULTS"), std::string::npos)
      << output;
  EXPECT_NE(output.find("store.append"), std::string::npos)
      << "error should list the valid sites: " << output;
  EXPECT_EQ(run_cli_env("PRESTAGE_FAULTS=store.append:fail@every=x",
                        "faults list", &output),
            2);
  EXPECT_EQ(
      run_cli_env("PRESTAGE_FAULTS=point.execute:torn", "list", &output),
      2);
  EXPECT_NE(output.find("append site"), std::string::npos) << output;
}

TEST(CliFaults, SeededFaultQuarantinesThenRecoversByteIdentical) {
  const std::string store = test_file("quarantine.jsonl");
  std::remove(store.c_str());
  std::remove((store + ".perf").c_str());
  std::remove((store + ".failures").c_str());
  const std::string ref_store = test_file("quarantine-ref.jsonl");
  std::remove(ref_store.c_str());
  const std::string common = "--name smoke --instrs 700 ";
  std::string output;

  // Reference bytes: the same grid never faulted.
  ASSERT_EQ(run_cli("campaign run " + common + "--store " + ref_store +
                        " -j 2",
                    &output),
            0)
      << output;
  // Victim: an interior grid point's key, read from the reference store.
  std::istringstream lines(read_file(ref_store));
  std::string line;
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(std::getline(lines, line));
  const std::string victim = parse_json(line).at("key").string;

  int rc = run_cli_env("PRESTAGE_FAULTS=point.execute:fail@key=" + victim,
                       "campaign run " + common + "--store " + store +
                           " -j 2 --json -",
                       &output);
  EXPECT_EQ(rc, 4) << "quarantine has its own exit code: " << output;
  const JsonValue run = parse_json(output);
  EXPECT_EQ(run.at("quarantined").number, 1.0);
  ASSERT_EQ(run.at("failures").array.size(), 1u);
  const JsonValue& failure = run.at("failures").array[0];
  EXPECT_EQ(failure.at("key").string, victim);
  EXPECT_EQ(failure.at("error_class").string, "FaultInjected");
  EXPECT_EQ(failure.at("attempts").number, 2.0);

  rc = run_cli("campaign status " + common + "--store " + store +
                   " --json -",
               &output);
  ASSERT_EQ(rc, 0) << output;
  const JsonValue before = parse_json(output);
  EXPECT_EQ(before.at("quarantined").number, 1.0);
  EXPECT_EQ(before.at("recovered").number, 0.0);
  EXPECT_EQ(before.at("missing").number, 1.0);

  // Disarmed resume re-runs the quarantined point and converges on the
  // never-faulted bytes; the failure record flips to "recovered".
  rc = run_cli("campaign resume " + common + "--store " + store + " -j 2",
               &output);
  ASSERT_EQ(rc, 0) << output;
  EXPECT_EQ(read_file(store), read_file(ref_store));

  rc = run_cli("campaign status " + common + "--store " + store +
                   " --json -",
               &output);
  ASSERT_EQ(rc, 0) << output;
  const JsonValue after = parse_json(output);
  EXPECT_EQ(after.at("quarantined").number, 0.0);
  EXPECT_EQ(after.at("recovered").number, 1.0);
  EXPECT_TRUE(after.at("complete").boolean);
}

TEST(CliFaults, StrictModeFailsFastWithPointIdentity) {
  const std::string store = test_file("strict.jsonl");
  std::remove(store.c_str());
  std::string output;
  const int rc = run_cli_env(
      "PRESTAGE_FAULTS=point.execute:fail@1",
      "campaign run --name smoke --instrs 700 --store " + store +
          " -j 1 --strict",
      &output);
  EXPECT_EQ(rc, 1) << output;
  EXPECT_NE(output.find("run point"), std::string::npos)
      << "strict error must name the point: " << output;
  EXPECT_NE(output.find("injected fault"), std::string::npos) << output;
}

TEST(CliFaults, SampleRunFallsBackOnCorruptCheckpoint) {
  const std::string plan = test_file("corrupt.psck");
  { std::ofstream out(plan, std::ios::trunc); out << "not a checkpoint"; }
  std::string output;
  const int rc = run_cli("sample run --bench eon --instrs 3000 --plan " +
                             plan + " --json -",
                         &output);
  ASSERT_EQ(rc, 0) << "a corrupt checkpoint degrades, never aborts: "
                   << output;
  // stderr carries the warning; stdout stays a parseable document.
  const std::size_t json_start = output.find('{');
  ASSERT_NE(json_start, std::string::npos) << output;
  EXPECT_NE(output.find("falling back to a fresh plan"), std::string::npos)
      << output;
  const JsonValue doc = parse_json(output.substr(json_start));
  EXPECT_TRUE(doc.at("checkpoint_fallback").boolean);
  EXPECT_GE(doc.at("result").at("cold_starts").number, 1.0);
  // The estimate carries every count and both breakdowns of a full run.
  EXPECT_TRUE(doc.at("result").has("dcache_misses")) << output;
  check_breakdown(doc.at("result").at("prefetch_sources"));

  // A count that lies about the bytes after it is corrupt too, however
  // large: the 79-byte header of an eon plan with a slice count of
  // 0xffffffff falls back, it does not exhaust memory.
  const std::string lying = test_file("lying.psck");
  ASSERT_EQ(run_cli("sample plan --bench eon --instrs 3000 --out " + lying,
                    &output),
            0)
      << output;
  std::string bytes = read_file(lying);
  ASSERT_GT(bytes.size(), 79u);
  ASSERT_EQ(bytes.substr(52, 3), "eon");  // u32 name length, then the name
  bytes.resize(79);                       // ... up to the slice count
  bytes.replace(75, 4, "\xff\xff\xff\xff");
  { std::ofstream(lying, std::ios::binary | std::ios::trunc) << bytes; }
  ASSERT_EQ(run_cli("sample run --bench eon --instrs 3000 --plan " + lying +
                        " --json -",
                    &output),
            0)
      << output;
  EXPECT_NE(output.find("falling back to a fresh plan"), std::string::npos)
      << output;
  EXPECT_NE(output.find("exceeds the bytes left"), std::string::npos)
      << output;

  // A checkpoint for the wrong workload stays a hard usage error.
  const std::string other = test_file("other.psck");
  ASSERT_EQ(run_cli("sample plan --bench gzip --instrs 3000 --out " + other,
                    &output),
            0)
      << output;
  EXPECT_EQ(run_cli("sample run --bench eon --instrs 3000 --plan " + other,
                    &output),
            2);
  EXPECT_NE(output.find("was built for workload"), std::string::npos)
      << output;

  // So are knobs and a budget the checkpoint was not built with: the run
  // would report the checkpoint's plan under the command's labels. The
  // message names the flag, the value given and the checkpoint's.
  const std::string planned = test_file("k.psck");
  ASSERT_EQ(run_cli("sample plan --bench eon --instrs 20000 --interval 5000 "
                    "--out " + planned,
                    &output),
            0)
      << output;
  const std::string run = "sample run --bench eon --plan " + planned;
  const std::pair<const char*, const char*> refused[] = {
      {" --instrs 20000 --interval 999 --max-k 1",
       "--interval 999 does not match checkpoint"},
      {" --instrs 8000", "--instrs 8000 does not match checkpoint"},
      {" --instrs 20000 --dim 8", "--dim 8 does not match checkpoint"},
  };
  for (const auto& [args, message] : refused) {
    EXPECT_EQ(run_cli(run + args, &output), 2) << args << ": " << output;
    EXPECT_NE(output.find(message), std::string::npos) << output;
  }
  EXPECT_NE(output.find("(built with 16)"), std::string::npos) << output;
  // The checkpoint's own knobs and budget are accepted.
  EXPECT_EQ(run_cli(run + " --instrs 20000 --interval 5000 --dim 16 "
                          "--max-k 6 --warm-lines 256 --warmup 1",
                    &output),
            0)
      << output;
}

}  // namespace
