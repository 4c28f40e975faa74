// The machine-composition grammar: named configurations are no longer a
// closed enum but compositions of a registered prefetcher with
// structural modifiers, written as spec strings.
//
//   spec       := chunk ('+' chunk)* ['@' node]
//   chunk      := token ('-' token)*
//   first token(s) must name a registered prefetcher (longest match, so
//   "next-line" works); every later token is a modifier:
//     l0         add the L0 filter cache (sized to the node's one-cycle max)
//     ideal      force a 1-cycle L1 (Figure 1 "ideal")
//     pipelined  pipeline the L1 I-cache
//     pb<N>      N-entry pre-buffer (pipelined when N exceeds the node's
//                one-cycle entry count — derived, not hardcoded)
//   node       := a cacti::parse_node() alias ("090", "0.045um", ...)
//
// Spellings vary ("fdp+l0+pb16" == "fdp-l0-pb16"; tokens are
// lower-case), but every composition has ONE canonical kebab-case form
// (canonical_name) that round-trips through parse_spec; the canonical
// forms of the paper's ten presets are exactly their historical CLI
// names ("clgp-l0-pb16"), so campaign run-point keys and stored results
// are unchanged by the open grammar.
//
// Pre-buffer and L0 sizes follow §5: the largest one-cycle structure at
// each node (8 entries / 512 B at 0.09 µm, 4 entries / 256 B at
// 0.045 µm); the 16-entry (1 KB) pre-buffer variant is pipelined (2
// stages at 0.09 µm, 3 at 0.045 µm — derived from the CACTI model).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cpu/config.hpp"

namespace prestage::sim {

/// A parsed machine composition: which prefetcher plus which structural
/// deltas. A default-constructed Composition is the conventional
/// blocking-L1 baseline.
struct Composition {
  std::string prefetcher = cpu::kNoPrefetcher;  ///< registered name
  bool ideal_l1 = false;                        ///< "ideal"
  bool l1i_pipelined = false;                   ///< "pipelined"
  bool has_l0 = false;                          ///< "l0"
  std::optional<std::uint32_t> prebuffer_entries;  ///< "pb<N>"
  std::optional<cacti::TechNode> node;             ///< "@<node>" override

  [[nodiscard]] bool operator==(const Composition&) const = default;
};

/// Parses a spec string against the prefetcher registry; nullopt on any
/// unknown prefetcher, unknown modifier or malformed node suffix.
[[nodiscard]] std::optional<Composition> parse_spec(std::string_view spec);

/// The canonical kebab-case spelling; parse_spec(canonical_name(c)) == c.
[[nodiscard]] std::string canonical_name(const Composition& c);

/// Human chart label, e.g. "CLGP+L0+PB:16" (the historical figure
/// labels for the paper's presets, generated for everything else).
[[nodiscard]] std::string display_label(const Composition& c);

/// display_label() for a spec string (asserts the spec is valid).
[[nodiscard]] std::string preset_label(std::string_view spec);

/// The curated named presets (canonical spec strings): the paper's ten
/// plus one composition per additional registered prefetcher family.
/// `prestage list` and the unknown-preset CLI error enumerate these.
[[nodiscard]] const std::vector<std::string>& all_presets();

/// Number of pre-buffer entries whose total size is one-cycle accessible
/// at @p node (the paper's default pre-buffer: 8 at 0.09 µm, 4 at 0.045 µm).
[[nodiscard]] std::uint32_t one_cycle_prebuffer_entries(cacti::TechNode node);

/// Builds the MachineConfig for @p c at @p node (overridden by the
/// composition's own "@node" suffix when present) with @p l1i_size.
[[nodiscard]] cpu::MachineConfig make_config(const Composition& c,
                                             cacti::TechNode node,
                                             std::uint64_t l1i_size);

/// make_config() for a spec string (asserts the spec is valid — CLI and
/// campaign layers validate user input through parse_spec first).
[[nodiscard]] cpu::MachineConfig make_config(std::string_view spec,
                                             cacti::TechNode node,
                                             std::uint64_t l1i_size);

/// The L1 I-cache sizes on the paper's X axes (256 B .. 64 KB).
[[nodiscard]] const std::vector<std::uint64_t>& paper_l1_sizes();

/// All 12 SPECint2000-like benchmark names.
[[nodiscard]] std::vector<std::string> full_suite();

/// Parses a positive decimal count with an optional K/M suffix (x1024,
/// x1024^2): the grammar of --instrs, --l1 and PRESTAGE_INSTRS. nullopt
/// on any other character, on zero and on overflow.
[[nodiscard]] std::optional<std::uint64_t> parse_u64(std::string_view text);

/// Default instruction budget per benchmark run. Override with the
/// PRESTAGE_INSTRS environment variable (CLI, bench harnesses and
/// examples honour it), parsed like --instrs; a malformed value throws
/// SimError.
[[nodiscard]] std::uint64_t default_instructions();

}  // namespace prestage::sim
