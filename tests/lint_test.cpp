// Fixture-driven tests for prestage-lint: spawns the real binary (path
// baked in via PRESTAGE_LINT_PATH) over the good/bad snippets in
// tests/data/lint/, and validates rule IDs, line numbers, suppression
// handling, exit codes and the prestage-lint-v1 JSON document with the
// strict common/json.hpp parser.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"

namespace {

using JsonValue = prestage::json::Value;

std::string lint_path() { return PRESTAGE_LINT_PATH; }
std::string data_dir() { return PRESTAGE_TEST_DATA_DIR "/lint"; }
std::string fixture(const std::string& name) { return data_dir() + "/" + name; }

std::string test_file(const std::string& name) {
  const auto* info = testing::UnitTest::GetInstance()->current_test_info();
  return testing::TempDir() + "/" + info->test_suite_name() + "." +
         info->name() + "." + name;
}

/// Runs `prestage-lint <args>`, captures stdout+stderr, returns the
/// exit code.
int run_lint(const std::string& args, std::string* output) {
  const std::string out_file = test_file("lint_out.txt");
  const std::string command =
      lint_path() + " " + args + " > " + out_file + " 2>&1";
  const int status = std::system(command.c_str());
  std::ifstream in(out_file);
  std::stringstream ss;
  ss << in.rdbuf();
  *output = ss.str();
  if (status == -1) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Lints @p files under tests/data/lint/config.json (all rules error,
/// no path scoping) and returns the parsed JSON document.
JsonValue lint_fixtures(const std::vector<std::string>& files, int* exit_code,
                        const std::string& config = "config.json") {
  const std::string json_file = test_file("lint.json");
  // Built up with += (not one + chain): GCC 12's -Wrestrict misfires on
  // `const char* + std::string&&` chains under -O2.
  std::string args = "--config ";
  args += fixture(config);
  args += " --json ";
  args += json_file;
  for (const std::string& f : files) {
    args += ' ';
    args += fixture(f);
  }
  std::string output;
  *exit_code = run_lint(args, &output);
  EXPECT_GE(*exit_code, 0) << output;
  return prestage::json::parse(read_file(json_file));
}

/// The (rule, line) pairs of every finding matching @p suppressed.
std::vector<std::pair<std::string, int>> findings_of(const JsonValue& doc,
                                                     bool suppressed) {
  std::vector<std::pair<std::string, int>> out;
  for (const JsonValue& f : doc.at("findings").array) {
    if (f.at("suppressed").boolean != suppressed) continue;
    out.emplace_back(f.at("rule").as_string(),
                     static_cast<int>(f.at("line").as_number()));
  }
  return out;
}

void check_schema(const JsonValue& doc) {
  EXPECT_EQ(doc.at("schema").as_string(), "prestage-lint-v1");
  for (const char* field : {"files_scanned", "errors", "warnings",
                            "suppressed"}) {
    ASSERT_TRUE(doc.has(field)) << field;
    EXPECT_EQ(doc.at(field).kind, JsonValue::Kind::Number) << field;
  }
  for (const JsonValue& f : doc.at("findings").array) {
    for (const char* field : {"file", "rule", "severity", "message"}) {
      EXPECT_EQ(f.at(field).kind, JsonValue::Kind::String) << field;
    }
    EXPECT_EQ(f.at("line").kind, JsonValue::Kind::Number);
    EXPECT_EQ(f.at("suppressed").kind, JsonValue::Kind::Bool);
  }
}

TEST(LintRules, ListRulesEnumeratesCatalog) {
  std::string output;
  ASSERT_EQ(run_lint("--list-rules", &output), 0);
  for (const char* rule :
       {"prestage-unordered-iteration", "prestage-wallclock",
        "prestage-pointer-order", "prestage-float-accumulation",
        "prestage-console-io"}) {
    EXPECT_NE(output.find(rule), std::string::npos) << rule;
  }
}

TEST(LintRules, UnorderedIterationIsCaught) {
  int rc = 0;
  const JsonValue doc = lint_fixtures({"bad_unordered_iteration.cpp"}, &rc);
  EXPECT_EQ(rc, 1);
  check_schema(doc);
  using P = std::pair<std::string, int>;
  EXPECT_EQ(findings_of(doc, false),
            (std::vector<P>{{"prestage-unordered-iteration", 10},
                            {"prestage-unordered-iteration", 16},
                            {"prestage-unordered-iteration", 26}}));
}

TEST(LintRules, WallclockReadsAreCaught) {
  int rc = 0;
  const JsonValue doc = lint_fixtures({"bad_wallclock.cpp"}, &rc);
  EXPECT_EQ(rc, 1);
  using P = std::pair<std::string, int>;
  EXPECT_EQ(findings_of(doc, false),
            (std::vector<P>{{"prestage-wallclock", 7},
                            {"prestage-wallclock", 10},
                            {"prestage-wallclock", 14},
                            {"prestage-wallclock", 17}}));
}

TEST(LintRules, PointerKeyedContainersAreCaught) {
  int rc = 0;
  const JsonValue doc = lint_fixtures({"bad_pointer_order.cpp"}, &rc);
  EXPECT_EQ(rc, 1);
  using P = std::pair<std::string, int>;
  // Three pointer-keyed containers; pointer-valued std::map<int, Node*>
  // must not appear.
  EXPECT_EQ(findings_of(doc, false),
            (std::vector<P>{{"prestage-pointer-order", 11},
                            {"prestage-pointer-order", 12},
                            {"prestage-pointer-order", 13}}));
}

TEST(LintRules, FloatAccumulationWithoutOrderCommentIsCaught) {
  int rc = 0;
  const JsonValue doc = lint_fixtures({"bad_float_accumulation.cpp"}, &rc);
  EXPECT_EQ(rc, 1);
  using P = std::pair<std::string, int>;
  EXPECT_EQ(findings_of(doc, false),
            (std::vector<P>{{"prestage-float-accumulation", 7}}));
}

TEST(LintRules, ConsoleWritesAreCaught) {
  int rc = 0;
  const JsonValue doc = lint_fixtures({"bad_console_io.cpp"}, &rc);
  EXPECT_EQ(rc, 1);
  using P = std::pair<std::string, int>;
  // The FILE*-parameter fprintf on line 12 must not appear.
  EXPECT_EQ(findings_of(doc, false),
            (std::vector<P>{{"prestage-console-io", 6},
                            {"prestage-console-io", 7},
                            {"prestage-console-io", 8},
                            {"prestage-console-io", 9}}));
}

TEST(LintRules, CleanFileHasZeroFindings) {
  int rc = 0;
  const JsonValue doc = lint_fixtures({"good_clean.cpp"}, &rc);
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(doc.at("files_scanned").as_number(), 1.0);
  EXPECT_TRUE(doc.at("findings").array.empty());
}

TEST(LintSuppression, NamedWildcardAndNextlineSuppress) {
  int rc = 0;
  const JsonValue doc = lint_fixtures({"suppressed.cpp"}, &rc);
  // The bare-NOLINT and wrong-rule findings remain: still exit 1.
  EXPECT_EQ(rc, 1);
  EXPECT_EQ(doc.at("suppressed").as_number(), 3.0);
  EXPECT_EQ(doc.at("errors").as_number(), 2.0);
  using P = std::pair<std::string, int>;
  EXPECT_EQ(findings_of(doc, true),
            (std::vector<P>{{"prestage-wallclock", 8},
                            {"prestage-wallclock", 10},
                            {"prestage-wallclock", 13}}));
  EXPECT_EQ(findings_of(doc, false),
            (std::vector<P>{{"prestage-wallclock", 15},
                            {"prestage-wallclock", 17}}));
}

TEST(LintIndex, HeaderDeclarationIsSeenAcrossFiles) {
  // Scanned together, the .cpp's iteration over the header's unordered
  // member is caught ...
  int rc = 0;
  const JsonValue both =
      lint_fixtures({"unordered_decl.hpp", "unordered_iter.cpp"}, &rc);
  EXPECT_EQ(rc, 1);
  using P = std::pair<std::string, int>;
  EXPECT_EQ(findings_of(both, false),
            (std::vector<P>{{"prestage-unordered-iteration", 8}}));
  // ... and scanned alone the declaration is invisible, proving the
  // finding came from the cross-file index.
  const JsonValue alone = lint_fixtures({"unordered_iter.cpp"}, &rc);
  EXPECT_EQ(rc, 0);
  EXPECT_TRUE(alone.at("findings").array.empty());
}

TEST(LintIndex, AllowedFileDoesNotLeakNames) {
  // A name declared in a file the rule does not apply to must not make a
  // same-named variable elsewhere an unordered container: b/y.cpp walks
  // a vector called `seen`, and only the allow-listed a/x.cpp declares
  // an unordered `seen`. Run from the tree's root, so the config's
  // relative allow entry names a/.
  const std::string root = test_file("tree");
  std::filesystem::create_directories(root + "/a");
  std::filesystem::create_directories(root + "/b");
  std::ofstream(root + "/a/x.cpp")
      << "#include <unordered_set>\n"
         "std::unordered_set<int> seen;\n";
  std::ofstream(root + "/b/y.cpp")
      << "#include <vector>\n"
         "int sum(const std::vector<int>& seen) {\n"
         "  int total = 0;\n"
         "  for (int v : seen) total += v;\n"
         "  return total;\n"
         "}\n";
  std::ofstream(root + "/config.json")
      << R"({"schema": "prestage-lint-config-v1", "rules": {)"
      << R"("prestage-unordered-iteration": {"severity": "error", )"
      << R"("allow": ["a/"]}}})";
  const std::string command = "cd " + root + " && " + lint_path() +
                              " --config config.json --json lint.json "
                              "a/x.cpp b/y.cpp > out.txt 2>&1";
  const int status = std::system(command.c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << read_file(root + "/out.txt");
  const JsonValue doc = prestage::json::parse(read_file(root + "/lint.json"));
  EXPECT_EQ(doc.at("files_scanned").as_number(), 2.0);
  EXPECT_TRUE(doc.at("findings").array.empty())
      << read_file(root + "/out.txt");
}

TEST(LintConfig, WarnSeverityReportsWithoutFailing) {
  int rc = 0;
  const JsonValue doc =
      lint_fixtures({"bad_wallclock.cpp"}, &rc, "config_warn.json");
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(doc.at("errors").as_number(), 0.0);
  EXPECT_EQ(doc.at("warnings").as_number(), 4.0);
}

TEST(LintConfig, PathScopingDisablesRuleElsewhere) {
  int rc = 0;
  const JsonValue doc =
      lint_fixtures({"bad_wallclock.cpp"}, &rc, "config_scoped.json");
  EXPECT_EQ(rc, 0);
  EXPECT_TRUE(doc.at("findings").array.empty());
}

TEST(LintConfig, AllowEntryIsFileGranular) {
  // The production config allowlists single files (src/cpu/cpu.cpp,
  // src/sample/runner.cpp) for prestage-wallclock; this pins that an
  // allow entry stops at the named file instead of covering its
  // directory.
  const std::string config = test_file("allow_file.json");
  {
    std::ofstream out(config);
    out << R"({"schema": "prestage-lint-config-v1", "rules": {)"
        << R"("prestage-wallclock": {"severity": "error", "allow": [")"
        << fixture("bad_wallclock.cpp") << R"("]}}})";
  }
  const std::string json_file = test_file("lint.json");
  std::string output;
  const int rc = run_lint("--config " + config + " --json " + json_file +
                              " " + fixture("bad_wallclock.cpp") + " " +
                              fixture("bad_wallclock_peer.cpp"),
                          &output);
  EXPECT_EQ(rc, 1) << output;
  const JsonValue doc = prestage::json::parse(read_file(json_file));
  // The allowlisted file contributes nothing; its same-directory peer
  // still trips.
  ASSERT_EQ(doc.at("findings").array.size(), 1U);
  const JsonValue& f = doc.at("findings").array.front();
  EXPECT_EQ(f.at("file").as_string(), fixture("bad_wallclock_peer.cpp"));
  EXPECT_EQ(f.at("rule").as_string(), "prestage-wallclock");
  EXPECT_EQ(f.at("line").as_number(), 5.0);
}

TEST(LintConfig, UnknownRuleIsRejected) {
  const std::string bad_config = test_file("bad_config.json");
  {
    std::ofstream out(bad_config);
    out << R"({"schema": "prestage-lint-config-v1",)"
        << R"( "rules": {"prestage-tyop": {"severity": "error"}}})";
  }
  std::string output;
  const int rc = run_lint("--config " + bad_config + " " +
                              fixture("good_clean.cpp"),
                          &output);
  EXPECT_EQ(rc, 2);
  EXPECT_NE(output.find("unknown rule"), std::string::npos) << output;
}

TEST(LintConfig, MalformedConfigIsRejected) {
  const std::string bad_config = test_file("malformed.json");
  {
    std::ofstream out(bad_config);
    out << "{ not json";
  }
  std::string output;
  const int rc = run_lint("--config " + bad_config + " " +
                              fixture("good_clean.cpp"),
                          &output);
  EXPECT_EQ(rc, 2);
}

TEST(LintConfig, MistypedEntryIsRejected) {
  // Valid JSON with a value of the wrong type: a usage error (exit 2)
  // that names the entry, never an uncaught exception.
  const std::pair<const char*, const char*> cases[] = {
      {R"({"schema": 5})", "'schema'"},
      {R"({"roots": [1]})", "'roots'"},
      {R"({"extensions": [".cpp", true]})", "'extensions'"},
      {R"({"rules": {"prestage-wallclock": {"severity": 3}}})",
       "'rules.prestage-wallclock.severity'"},
      {R"({"rules": {"prestage-wallclock": {"paths": [null]}}})",
       "'rules.prestage-wallclock.paths'"},
  };
  const std::string bad_config = test_file("mistyped.json");
  for (const auto& [config, entry] : cases) {
    { std::ofstream(bad_config, std::ios::trunc) << config; }
    std::string output;
    const int rc = run_lint("--config " + bad_config + " " +
                                fixture("good_clean.cpp"),
                            &output);
    EXPECT_EQ(rc, 2) << config << ": " << output;
    EXPECT_NE(output.find(std::string("prestage-lint: config entry ") +
                          entry + " has the wrong type"),
              std::string::npos)
        << config << ": " << output;
  }
}

}  // namespace
