#include "lint/rules.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <set>
#include <string_view>

namespace prestage::lint {

namespace {

constexpr std::string_view kWallclock = "prestage-wallclock";
constexpr std::string_view kPointerOrder = "prestage-pointer-order";
constexpr std::string_view kFloatAccumulation =
    "prestage-float-accumulation";
constexpr std::string_view kConsoleIo = "prestage-console-io";

bool is_ident(const Token& t, std::string_view text) {
  return t.kind == Token::Kind::Ident && t.text == text;
}

bool is_punct(const Token& t, std::string_view text) {
  return t.kind == Token::Kind::Punct && t.text == text;
}

bool is_unordered_type(std::string_view name) {
  return name == "unordered_map" || name == "unordered_set" ||
         name == "unordered_multimap" || name == "unordered_multiset";
}

/// Index just past the `>` matching the `<` at @p open. Bails (returns
/// open + 1) when the bracket never closes before a `;` or `{` at depth
/// zero of braces — that `<` was a comparison, not a template.
std::size_t skip_template(const std::vector<Token>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (is_punct(t, "<")) ++depth;
    else if (is_punct(t, ">")) {
      if (--depth == 0) return i + 1;
    } else if (is_punct(t, ";") || is_punct(t, "{")) {
      return open + 1;
    }
  }
  return open + 1;
}

/// True when toks[i] is written as a `std::`-rooted qualified name
/// (including nested namespaces like `std::chrono::steady_clock`), a
/// globally qualified one (`::time`), or an unqualified one (which
/// `using namespace std` would allow) — we only *exclude* explicit
/// non-std qualification like `mylib::map`.
bool std_qualified_or_plain(const std::vector<Token>& toks, std::size_t i) {
  std::size_t j = i;
  while (j >= 2 && is_punct(toks[j - 1], "::") &&
         toks[j - 2].kind == Token::Kind::Ident) {
    j -= 2;
  }
  if (j != i) return is_ident(toks[j], "std") || is_ident(toks[j], "chrono");
  return true;
}

/// True when toks[i] is a direct call target: not a member access and,
/// if qualified, qualified as `std::`.
bool direct_call(const std::vector<Token>& toks, std::size_t i) {
  if (i + 1 >= toks.size() || !is_punct(toks[i + 1], "(")) return false;
  if (i >= 1 && (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->")))
    return false;
  return std_qualified_or_plain(toks, i);
}

void add(std::vector<Finding>& out, std::string_view rule,
         const FileScan& f, int line, std::string message) {
  out.push_back(Finding{std::string(rule), f.path, line, std::move(message)});
}

// --- prestage-unordered-iteration ------------------------------------------

/// Collects the declared names of unordered containers: after the
/// closing `>` of `unordered_map<...>` (through any `*`/`&`/`const`),
/// the next identifier is the variable (or member) name. `using X =
/// std::unordered_map<...>` records X as an unordered alias.
void collect_unordered_names(const FileScan& f,
                             std::vector<std::string>& names) {
  const auto& toks = f.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::Ident ||
        !is_unordered_type(toks[i].text)) {
      continue;
    }
    // Alias: using <name> = [std::]unordered_map<...>
    if (i >= 2 && is_punct(toks[i - 1], "=") &&
        toks[i - 2].kind == Token::Kind::Ident && i >= 3 &&
        is_ident(toks[i - 3], "using")) {
      names.push_back(toks[i - 2].text);
    } else if (i >= 3 && is_punct(toks[i - 1], "::") &&
               is_punct(toks[i - 3], "=") && i >= 4 &&
               toks[i - 4].kind == Token::Kind::Ident && i >= 5 &&
               is_ident(toks[i - 5], "using")) {
      names.push_back(toks[i - 4].text);
    }
    if (i + 1 >= toks.size() || !is_punct(toks[i + 1], "<")) continue;
    std::size_t j = skip_template(toks, i + 1);
    while (j < toks.size() &&
           (is_punct(toks[j], "*") || is_punct(toks[j], "&") ||
            is_ident(toks[j], "const"))) {
      ++j;
    }
    if (j < toks.size() && toks[j].kind == Token::Kind::Ident) {
      names.push_back(toks[j].text);
    }
  }
}

void check_unordered_iteration(const FileScan& f, const GlobalIndex& index,
                               std::vector<Finding>& out) {
  const auto& toks = f.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    // Range-for whose range expression names an unordered container.
    if (is_ident(toks[i], "for") && is_punct(toks[i + 1], "(")) {
      int depth = 0;
      std::size_t colon = 0;
      std::size_t close = 0;
      for (std::size_t j = i + 1; j < toks.size(); ++j) {
        if (is_punct(toks[j], "(")) ++depth;
        else if (is_punct(toks[j], ")")) {
          if (--depth == 0) {
            close = j;
            break;
          }
        } else if (depth == 1 && colon == 0 && is_punct(toks[j], ":")) {
          colon = j;
        }
      }
      if (colon == 0 || close == 0) continue;
      for (std::size_t j = colon + 1; j < close; ++j) {
        const Token& t = toks[j];
        if (t.kind != Token::Kind::Ident) continue;
        if (is_unordered_type(t.text) || index.is_unordered(t.text)) {
          add(out, kUnorderedIteration, f, toks[i].line,
              "range-for over unordered container '" + t.text +
                  "': iteration order is nondeterministic; use an ordered "
                  "container or copy-and-sort before emitting");
          break;
        }
      }
    }
    // Explicit iterator walk: <unordered>.begin() / .cbegin().
    if (toks[i].kind == Token::Kind::Ident &&
        index.is_unordered(toks[i].text) && i + 2 < toks.size() &&
        (is_punct(toks[i + 1], ".") || is_punct(toks[i + 1], "->")) &&
        (is_ident(toks[i + 2], "begin") || is_ident(toks[i + 2], "cbegin"))) {
      add(out, kUnorderedIteration, f, toks[i].line,
          "iterator over unordered container '" + toks[i].text +
              "': iteration order is nondeterministic; use an ordered "
              "container or copy-and-sort before emitting");
    }
  }
}

// --- prestage-wallclock -----------------------------------------------------

void check_wallclock(const FileScan& f, std::vector<Finding>& out) {
  static constexpr std::array<std::string_view, 9> kBadAnywhere = {
      "random_device",   "steady_clock", "system_clock",
      "high_resolution_clock", "gettimeofday", "clock_gettime",
      "timespec_get",    "localtime",    "gmtime"};
  static constexpr std::array<std::string_view, 4> kBadCalls = {
      "rand", "srand", "time", "clock"};
  const auto& toks = f.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::Ident) continue;
    const std::string& name = toks[i].text;
    const bool anywhere =
        std::find(kBadAnywhere.begin(), kBadAnywhere.end(), name) !=
        kBadAnywhere.end();
    const bool call =
        std::find(kBadCalls.begin(), kBadCalls.end(), name) !=
        kBadCalls.end();
    if (anywhere && std_qualified_or_plain(toks, i)) {
      add(out, kWallclock, f, toks[i].line,
          "'" + name +
              "' reads wall-clock/entropy state: results must not depend "
              "on the host; use the seeded common/rng.hpp generators or "
              "the blessed telemetry path");
    } else if (call && direct_call(toks, i)) {
      add(out, kWallclock, f, toks[i].line,
          "call to '" + name +
              "()' is nondeterministic across runs; use the seeded "
              "common/rng.hpp generators or the blessed telemetry path");
    }
  }
}

// --- prestage-pointer-order -------------------------------------------------

void check_pointer_order(const FileScan& f, std::vector<Finding>& out) {
  static constexpr std::array<std::string_view, 8> kKeyed = {
      "map",  "multimap", "set",     "multiset",
      "hash", "less",     "greater", "priority_queue"};
  const auto& toks = f.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::Ident) continue;
    if (std::find(kKeyed.begin(), kKeyed.end(), toks[i].text) ==
        kKeyed.end()) {
      continue;
    }
    // Require explicit std:: qualification: a bare `map<` / `set<` is
    // too likely to be a project type to key a finding on.
    if (i < 2 || !is_punct(toks[i - 1], "::") || !is_ident(toks[i - 2], "std"))
      continue;
    if (!is_punct(toks[i + 1], "<")) continue;
    const std::size_t end = skip_template(toks, i + 1);
    if (end == i + 2) continue;  // comparison, not a template
    // First template argument only: the key (or element) type.
    int depth = 0;
    for (std::size_t j = i + 1; j < end; ++j) {
      if (is_punct(toks[j], "<")) ++depth;
      else if (is_punct(toks[j], ">")) --depth;
      else if (depth == 1 && is_punct(toks[j], ",")) break;
      else if (depth == 1 && is_punct(toks[j], "*")) {
        add(out, kPointerOrder, f, toks[i].line,
            "'std::" + toks[i].text +
                "' ordered/hashed on a pointer type: allocation addresses "
                "differ run to run; key on a stable ID or supply a "
                "deterministic comparator");
        break;
      }
    }
  }
}

// --- prestage-float-accumulation --------------------------------------------

bool comment_mentions_order(const FileScan& f, int line) {
  for (int l = line - 2; l <= line; ++l) {
    const std::string_view c = f.comment_on(l);
    std::string lower(c);
    std::transform(lower.begin(), lower.end(), lower.begin(), [](char ch) {
      return static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
    });
    if (lower.find("order") != std::string::npos) return true;
  }
  return false;
}

void check_float_accumulation(const FileScan& f, std::vector<Finding>& out) {
  const auto& toks = f.tokens;
  // Pass 1: names declared float/double in this file.
  std::set<std::string> fp_vars;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!is_ident(toks[i], "double") && !is_ident(toks[i], "float")) continue;
    std::size_t j = i + 1;
    while (j < toks.size() &&
           (is_punct(toks[j], "&") || is_ident(toks[j], "const"))) {
      ++j;
    }
    if (j >= toks.size() || toks[j].kind != Token::Kind::Ident) continue;
    if (j + 1 < toks.size() &&
        (is_punct(toks[j + 1], "=") || is_punct(toks[j + 1], ";") ||
         is_punct(toks[j + 1], "{") || is_punct(toks[j + 1], ",") ||
         is_punct(toks[j + 1], ")"))) {
      fp_vars.insert(toks[j].text);
    }
  }
  // Pass 2: += on one of them without a nearby ordering comment.
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::Ident || !is_punct(toks[i + 1], "+="))
      continue;
    if (fp_vars.count(toks[i].text) == 0) continue;
    if (comment_mentions_order(f, toks[i].line)) continue;
    add(out, kFloatAccumulation, f, toks[i].line,
        "floating-point accumulation into '" + toks[i].text +
            "' without an ordering comment: FP addition is "
            "order-sensitive, so state (in a comment mentioning \"order\") "
            "why the iteration order is deterministic");
  }
}

// --- prestage-console-io ----------------------------------------------------

void check_console_io(const FileScan& f, std::vector<Finding>& out) {
  static constexpr std::array<std::string_view, 3> kStreams = {"cout", "cerr",
                                                               "clog"};
  static constexpr std::array<std::string_view, 4> kStdoutCalls = {
      "printf", "puts", "putchar", "vprintf"};
  static constexpr std::array<std::string_view, 4> kFileCalls = {
      "fprintf", "fputs", "fputc", "vfprintf"};
  const auto& toks = f.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::Ident) continue;
    const std::string& name = toks[i].text;
    if (std::find(kStreams.begin(), kStreams.end(), name) != kStreams.end()) {
      if (i >= 2 && is_punct(toks[i - 1], "::") &&
          is_ident(toks[i - 2], "std")) {
        add(out, kConsoleIo, f, toks[i].line,
            "direct write to std::" + name +
                " from library code: route output through the sink/report "
                "layers (JsonSink, render_* helpers, ostream parameters)");
      }
      continue;
    }
    if (std::find(kStdoutCalls.begin(), kStdoutCalls.end(), name) !=
            kStdoutCalls.end() &&
        direct_call(toks, i)) {
      add(out, kConsoleIo, f, toks[i].line,
          "'" + name +
              "()' writes to stdout from library code: route output "
              "through the sink/report layers");
      continue;
    }
    if (std::find(kFileCalls.begin(), kFileCalls.end(), name) !=
            kFileCalls.end() &&
        direct_call(toks, i)) {
      // Only a console write when the FILE* argument is stdout/stderr.
      int depth = 0;
      for (std::size_t j = i + 1; j < toks.size(); ++j) {
        if (is_punct(toks[j], "(")) ++depth;
        else if (is_punct(toks[j], ")")) {
          if (--depth == 0) break;
        } else if (is_ident(toks[j], "stderr") || is_ident(toks[j], "stdout")) {
          add(out, kConsoleIo, f, toks[i].line,
              "'" + name + "(" + toks[j].text +
                  ", ...)' writes to the console from library code: route "
                  "output through the sink/report layers");
          break;
        }
      }
    }
  }
}

}  // namespace

bool GlobalIndex::is_unordered(const std::string& name) const {
  return std::binary_search(unordered_names.begin(), unordered_names.end(),
                            name);
}

const std::vector<std::string>& all_rule_ids() {
  static const std::vector<std::string> ids = {
      std::string(kUnorderedIteration), std::string(kWallclock),
      std::string(kPointerOrder), std::string(kFloatAccumulation),
      std::string(kConsoleIo)};
  return ids;
}

void index_file(const FileScan& f, GlobalIndex& index) {
  collect_unordered_names(f, index.unordered_names);
}

void finalize_index(GlobalIndex& index) {
  std::sort(index.unordered_names.begin(), index.unordered_names.end());
  index.unordered_names.erase(
      std::unique(index.unordered_names.begin(), index.unordered_names.end()),
      index.unordered_names.end());
}

void run_rules(const FileScan& f, const GlobalIndex& index,
               std::vector<Finding>& out) {
  check_unordered_iteration(f, index, out);
  check_wallclock(f, out);
  check_pointer_order(f, out);
  check_float_accumulation(f, out);
  check_console_io(f, out);
}

}  // namespace prestage::lint
