#include "lint/lint.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/json_writer.hpp"
#include "lint/lexer.hpp"

namespace prestage::lint {

namespace {

namespace fs = std::filesystem;

bool has_extension(const std::string& path,
                   const std::vector<std::string>& extensions) {
  return std::any_of(
      extensions.begin(), extensions.end(), [&](const std::string& ext) {
        return path.size() >= ext.size() &&
               path.compare(path.size() - ext.size(), ext.size(), ext) == 0;
      });
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ConfigError("cannot read '" + path + "'");
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// True when the NOLINT rule list (the text between the parentheses)
/// names @p rule, either exactly or via the prestage-* wildcard.
bool list_names_rule(std::string_view list, const std::string& rule) {
  std::size_t start = 0;
  while (start <= list.size()) {
    std::size_t end = list.find(',', start);
    if (end == std::string_view::npos) end = list.size();
    std::string_view entry = list.substr(start, end - start);
    while (!entry.empty() && entry.front() == ' ') entry.remove_prefix(1);
    while (!entry.empty() && entry.back() == ' ') entry.remove_suffix(1);
    if (entry == rule || entry == "prestage-*") return true;
    start = end + 1;
  }
  return false;
}

/// Scans a line's comment text for `MARKER(list)` entries naming @p
/// rule. A marker without a rule list suppresses nothing, and a
/// `NOLINT` search never matches a `NOLINTNEXTLINE` marker (its prefix
/// is followed by `N`, not `(`).
bool comment_suppresses(std::string_view comment, std::string_view marker,
                        const std::string& rule) {
  std::size_t at = 0;
  while ((at = comment.find(marker, at)) != std::string_view::npos) {
    const std::size_t after = at + marker.size();
    if (after < comment.size() && comment[after] == '(') {
      const std::size_t close = comment.find(')', after);
      if (close != std::string_view::npos &&
          list_names_rule(comment.substr(after + 1, close - after - 1),
                          rule)) {
        return true;
      }
    }
    at = after;
  }
  return false;
}

bool is_suppressed(const FileScan& scan, const Finding& f) {
  return comment_suppresses(scan.comment_on(f.line), "NOLINT", f.rule) ||
         comment_suppresses(scan.comment_on(f.line - 1), "NOLINTNEXTLINE",
                            f.rule);
}

}  // namespace

std::vector<std::string> collect_files(const Config& config,
                                       const std::vector<std::string>& files) {
  if (!files.empty()) return files;
  std::vector<std::string> out;
  for (const std::string& root : config.roots) {
    if (!fs::exists(root)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(root)) {
      if (!entry.is_regular_file()) continue;
      std::string path = entry.path().generic_string();
      if (has_extension(path, config.extensions)) out.push_back(std::move(path));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

LintResult run_lint(const Config& config,
                    const std::vector<std::string>& paths) {
  std::vector<FileScan> scans;
  scans.reserve(paths.size());
  GlobalIndex index;
  const std::string indexed_rule(kUnorderedIteration);
  for (const std::string& path : paths) {
    scans.push_back(lex(path, read_file(path)));
    if (config.severity_for(indexed_rule, path) != Severity::Off) {
      index_file(scans.back(), index);
    }
  }
  finalize_index(index);

  LintResult result;
  result.files_scanned = scans.size();
  for (const FileScan& scan : scans) {
    std::vector<Finding> raw;
    run_rules(scan, index, raw);
    for (Finding& f : raw) {
      const Severity sev = config.severity_for(f.rule, f.path);
      if (sev == Severity::Off) continue;
      ReportedFinding rf;
      rf.severity = sev;
      rf.suppressed = is_suppressed(scan, f);
      rf.finding = std::move(f);
      if (rf.suppressed) {
        ++result.suppressed;
      } else if (sev == Severity::Error) {
        ++result.errors;
      } else {
        ++result.warnings;
      }
      result.findings.push_back(std::move(rf));
    }
  }
  std::sort(result.findings.begin(), result.findings.end(),
            [](const ReportedFinding& a, const ReportedFinding& b) {
              if (a.finding.path != b.finding.path)
                return a.finding.path < b.finding.path;
              if (a.finding.line != b.finding.line)
                return a.finding.line < b.finding.line;
              return a.finding.rule < b.finding.rule;
            });
  return result;
}

void write_text(std::ostream& out, const LintResult& result) {
  for (const ReportedFinding& rf : result.findings) {
    if (rf.suppressed) continue;
    out << rf.finding.path << ':' << rf.finding.line << ": "
        << to_string(rf.severity) << ": [" << rf.finding.rule << "] "
        << rf.finding.message << '\n';
  }
  out << "prestage-lint: " << result.files_scanned << " files, "
      << result.errors << " errors, " << result.warnings << " warnings, "
      << result.suppressed << " suppressed\n";
}

void write_json(std::ostream& out, const LintResult& result) {
  JsonWriter json(out);
  json.begin_object();
  json.field("schema", "prestage-lint-v1");
  json.field("files_scanned",
             static_cast<std::uint64_t>(result.files_scanned));
  json.field("errors", static_cast<std::uint64_t>(result.errors));
  json.field("warnings", static_cast<std::uint64_t>(result.warnings));
  json.field("suppressed", static_cast<std::uint64_t>(result.suppressed));
  json.key("findings");
  json.begin_array();
  for (const ReportedFinding& rf : result.findings) {
    json.begin_object();
    json.field("file", rf.finding.path);
    json.field("line", rf.finding.line);
    json.field("rule", rf.finding.rule);
    json.field("severity", to_string(rf.severity));
    json.field("suppressed", rf.suppressed);
    json.field("message", rf.finding.message);
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

}  // namespace prestage::lint
