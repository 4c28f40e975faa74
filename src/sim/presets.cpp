#include "sim/presets.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <limits>

#include "cacti/cacti.hpp"
#include "common/prestage_assert.hpp"
#include "prefetch/registry.hpp"
#include "workload/profiles.hpp"

namespace prestage::sim {

namespace {

/// Canonical short node spelling for the "@node" suffix (parse_node
/// accepts it back).
std::string_view node_suffix_name(cacti::TechNode node) {
  switch (node) {
    case cacti::TechNode::um180: return "180";
    case cacti::TechNode::um130: return "130";
    case cacti::TechNode::um090: return "090";
    case cacti::TechNode::um065: return "065";
    case cacti::TechNode::um045: return "045";
  }
  PRESTAGE_ASSERT(false, "unknown tech node");
}

/// Splits @p text on @p sep into (possibly empty) tokens.
std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) pos = text.size();
    out.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

/// Applies one modifier token; false when the token is unknown.
bool apply_modifier(Composition& c, std::string_view token) {
  if (token == "l0") {
    c.has_l0 = true;
    return true;
  }
  if (token == "ideal") {
    c.ideal_l1 = true;
    return true;
  }
  if (token == "pipelined") {
    c.l1i_pipelined = true;
    return true;
  }
  if (token.size() > 2 && token.substr(0, 2) == "pb") {
    std::uint32_t n = 0;
    for (const char ch : token.substr(2)) {
      if (!std::isdigit(static_cast<unsigned char>(ch))) return false;
      n = n * 10 + static_cast<std::uint32_t>(ch - '0');
      if (n > 1024) return false;
    }
    if (n == 0) return false;
    c.prebuffer_entries = n;
    return true;
  }
  return false;
}

/// Longest registered prefetcher name that is @p chunk or a
/// "-"-terminated prefix of it; empty when none matches.
std::string_view match_prefetcher(std::string_view chunk) {
  const auto& registry = prefetch::PrefetcherRegistry::instance();
  std::string_view best;
  for (const prefetch::PrefetcherInfo& info : registry.entries()) {
    const std::string& name = info.name;
    const bool matches =
        chunk == name ||
        (chunk.size() > name.size() && chunk.substr(0, name.size()) == name &&
         chunk[name.size()] == '-');
    if (matches && name.size() > best.size()) best = name;
  }
  return best;
}

}  // namespace

std::optional<Composition> parse_spec(std::string_view spec) {
  if (spec.empty()) return std::nullopt;

  Composition c;

  // Optional "@node" suffix.
  const std::size_t at = spec.rfind('@');
  if (at != std::string_view::npos) {
    const auto node = cacti::parse_node(spec.substr(at + 1));
    if (!node) return std::nullopt;
    c.node = *node;
    spec = spec.substr(0, at);
    if (spec.empty()) return std::nullopt;
  }

  const std::vector<std::string_view> chunks = split(spec, '+');

  // The first chunk names the prefetcher (longest match, so registered
  // names containing '-' like "next-line" win over a modifier reading),
  // optionally followed by kebab-joined modifiers.
  const std::string_view prefetcher = match_prefetcher(chunks.front());
  if (prefetcher.empty()) return std::nullopt;
  c.prefetcher = std::string(prefetcher);
  std::vector<std::string_view> modifiers;
  if (chunks.front().size() > prefetcher.size()) {
    for (const auto token :
         split(chunks.front().substr(prefetcher.size() + 1), '-')) {
      modifiers.push_back(token);
    }
  }
  for (std::size_t i = 1; i < chunks.size(); ++i) {
    for (const auto token : split(chunks[i], '-')) {
      modifiers.push_back(token);
    }
  }
  for (const std::string_view token : modifiers) {
    if (!apply_modifier(c, token)) return std::nullopt;
  }
  return c;
}

std::string canonical_name(const Composition& c) {
  std::string out = c.prefetcher;
  if (c.ideal_l1) out += "-ideal";
  if (c.l1i_pipelined) out += "-pipelined";
  if (c.has_l0) out += "-l0";
  if (c.prebuffer_entries) {
    out += "-pb" + std::to_string(*c.prebuffer_entries);
  }
  if (c.node) {
    out += '@';
    out += node_suffix_name(*c.node);
  }
  return out;
}

std::string display_label(const Composition& c) {
  const prefetch::PrefetcherInfo* info =
      prefetch::PrefetcherRegistry::instance().find(c.prefetcher);
  std::string label =
      info != nullptr ? info->label : std::string(c.prefetcher);
  if (c.ideal_l1) {
    // The paper's Figure 1 calls the 1-cycle-L1 baseline just "ideal".
    label = c.prefetcher == cpu::kNoPrefetcher ? "ideal" : label + "+ideal";
  }
  if (c.l1i_pipelined) label += " pipelined";
  if (c.has_l0) label += "+L0";
  if (c.prebuffer_entries) {
    label += "+PB:" + std::to_string(*c.prebuffer_entries);
  }
  if (c.node) {
    label += " @ ";
    label += cacti::to_string(*c.node);
  }
  return label;
}

std::string preset_label(std::string_view spec) {
  const auto c = parse_spec(spec);
  PRESTAGE_ASSERT(c.has_value(),
                  "invalid machine spec '" + std::string(spec) + "'");
  return display_label(*c);
}

const std::vector<std::string>& all_presets() {
  static const std::vector<std::string> presets = [] {
    // The paper's ten configurations, in their historical order...
    std::vector<std::string> names = {
        "base",      "base-ideal",
        "base-l0",   "base-pipelined",
        "fdp",       "fdp-l0",
        "fdp-l0-pb16", "clgp",
        "clgp-l0",   "clgp-l0-pb16",
    };
    // ...plus a bare and an L0 composition for every additional
    // registered prefetcher family, so a newly registered scheme shows
    // up in `prestage list` and validation without further edits.
    for (const auto& info :
         prefetch::PrefetcherRegistry::instance().entries()) {
      const std::string bare = info.name;
      if (std::find(names.begin(), names.end(), bare) != names.end()) {
        continue;
      }
      names.push_back(bare);
      names.push_back(bare + "-l0");
    }
    for (const std::string& name : names) {
      PRESTAGE_ASSERT(parse_spec(name).has_value(),
                      "unparseable preset '" + name + "'");
    }
    return names;
  }();
  return presets;
}

std::uint32_t one_cycle_prebuffer_entries(cacti::TechNode node) {
  const cacti::AccessTimeModel model;
  return static_cast<std::uint32_t>(model.max_one_cycle_size(node) / 64);
}

cpu::MachineConfig make_config(const Composition& c, cacti::TechNode node,
                               std::uint64_t l1i_size) {
  cpu::MachineConfig cfg;
  cfg.node = c.node.value_or(node);
  cfg.l1i_size = l1i_size;
  cfg.prefetcher = c.prefetcher;
  cfg.ideal_l1 = c.ideal_l1;
  cfg.l1i_pipelined = c.l1i_pipelined;
  cfg.has_l0 = c.has_l0;
  cfg.prebuffer_entries =
      c.prebuffer_entries.value_or(one_cycle_prebuffer_entries(cfg.node));
  return cfg;
}

cpu::MachineConfig make_config(std::string_view spec, cacti::TechNode node,
                               std::uint64_t l1i_size) {
  const auto c = parse_spec(spec);
  PRESTAGE_ASSERT(c.has_value(),
                  "invalid machine spec '" + std::string(spec) + "'");
  return make_config(*c, node, l1i_size);
}

const std::vector<std::uint64_t>& paper_l1_sizes() {
  static const std::vector<std::uint64_t> sizes = {
      256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536};
  return sizes;
}

std::vector<std::string> full_suite() {
  std::vector<std::string> names;
  names.reserve(workload::kNumBenchmarks);
  for (const auto n : workload::benchmark_names()) names.emplace_back(n);
  return names;
}

std::optional<std::uint64_t> parse_u64(std::string_view text) {
  if (text.empty()) return std::nullopt;
  std::uint64_t multiplier = 1;
  if (text.back() == 'K' || text.back() == 'k') {
    multiplier = 1024;
    text.remove_suffix(1);
  } else if (text.back() == 'M' || text.back() == 'm') {
    multiplier = 1024 * 1024;
    text.remove_suffix(1);
  }
  if (text.empty()) return std::nullopt;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t v = 0;
  for (const char c : text) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return std::nullopt;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (v > (kMax - digit) / 10) return std::nullopt;  // would overflow
    v = v * 10 + digit;
  }
  if (v == 0 || v > kMax / multiplier) return std::nullopt;
  return v * multiplier;
}

std::uint64_t default_instructions() {
  const char* env = std::getenv("PRESTAGE_INSTRS");
  if (env == nullptr) return 120000;
  const auto n = parse_u64(env);
  if (!n) {
    throw SimError(std::string("PRESTAGE_INSTRS needs a positive "
                               "instruction count, got '") +
                   env + "'");
  }
  return *n;
}

}  // namespace prestage::sim
