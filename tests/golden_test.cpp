// Golden-number regression tests: pinned simulator outputs so silent
// drift in any subsystem fails CTest loudly.
//
// The pins cover all ten of the paper's presets plus the registry's
// extra prefetcher families (next-line, stream) over a fixed
// 3-benchmark subset at a small instruction budget. The simulator is
// fully deterministic, so IPC is pinned to 1e-9 and fetch-source
// counters exactly.
//
// If a change INTENTIONALLY alters simulated behaviour (new timing
// model, calibration fix), re-pin by running this binary with
// --gtest_filter='Golden.*' and copying the reported actual values —
// and say so in the commit message. Refactors, parallelism changes and
// I/O work must NOT move these numbers. Every pin runs through the
// campaign engine, the one path that executes run points.
#include <gtest/gtest.h>

#include "campaign/engine.hpp"
#include "campaign/report.hpp"
#include "sim/presets.hpp"

namespace prestage::sim {
namespace {

constexpr std::uint64_t kInstrs = 6000;
const std::vector<std::string> kBenchmarks = {"eon", "gzip", "mcf"};

struct GoldenSources {
  std::uint64_t pb = 0;
  std::uint64_t l0 = 0;
  std::uint64_t l1 = 0;
  std::uint64_t l2 = 0;
  std::uint64_t mem = 0;
};

struct Golden {
  std::string preset;
  double hmean_ipc = 0.0;
  double ipc[3] = {0.0, 0.0, 0.0};  ///< eon, gzip, mcf
  GoldenSources fetch;
};

void check(const Golden& g) {
  // A pinned "@node" suffix becomes the grid's node axis, the way the
  // CLI folds it into --node.
  auto composition = parse_spec(g.preset);
  ASSERT_TRUE(composition.has_value()) << g.preset;
  const cacti::TechNode node =
      composition->node.value_or(cacti::TechNode::um045);
  composition->node.reset();
  const std::string preset = canonical_name(*composition);

  campaign::CampaignSpec spec;
  spec.presets = {preset};
  spec.nodes = {node};
  spec.l1_sizes = {4096};
  spec.benchmarks = kBenchmarks;
  spec.instructions = kInstrs;
  const campaign::ResultStore store = campaign::run_in_memory(spec);
  const campaign::ResultGrid grid(spec, store);
  ASSERT_EQ(grid.missing(), 0u);
  EXPECT_NEAR(grid.hmean_ipc(preset, node, 4096), g.hmean_ipc, 1e-9);
  for (std::size_t i = 0; i < kBenchmarks.size(); ++i) {
    EXPECT_NEAR(grid.at(preset, node, 4096, kBenchmarks[i])->result.ipc,
                g.ipc[i], 1e-9)
        << kBenchmarks[i];
  }
  const SourceBreakdown sources =
      grid.sources(&cpu::RunResult::fetch_sources, preset, node, 4096);
  EXPECT_EQ(sources.count(FetchSource::PreBuffer), g.fetch.pb);
  EXPECT_EQ(sources.count(FetchSource::L0), g.fetch.l0);
  EXPECT_EQ(sources.count(FetchSource::L1), g.fetch.l1);
  EXPECT_EQ(sources.count(FetchSource::L2), g.fetch.l2);
  EXPECT_EQ(sources.count(FetchSource::Memory), g.fetch.mem);
}

TEST(Golden, BasePreset) {
  check({.preset = "base",
         .hmean_ipc = 0.4047629004248976,
         .ipc = {0.37584565271861686, 0.56494728915662651,
                 0.33545754374196435},
         .fetch = {.pb = 0, .l0 = 0, .l1 = 2249, .l2 = 14, .mem = 26}});
}

TEST(Golden, BaseIdealPreset) {
  check({.preset = "base-ideal",
         .hmean_ipc = 0.42337091453727782,
         .ipc = {0.38694698826260804, 0.62986672263616328,
                 0.34316921141419338},
         .fetch = {.pb = 0, .l0 = 0, .l1 = 2434, .l2 = 15, .mem = 26}});
}

TEST(Golden, BaseL0Preset) {
  check({.preset = "base-l0",
         .hmean_ipc = 0.41763559007954765,
         .ipc = {0.38439361906592351, 0.60859866152910158,
                 0.34028919761837256},
         .fetch = {.pb = 0, .l0 = 1882, .l1 = 516, .l2 = 15, .mem = 26}});
}

TEST(Golden, BasePipelinedPreset) {
  check({.preset = "base-pipelined",
         .hmean_ipc = 0.42096530985102953,
         .ipc = {0.3849361647526785, 0.62358441558441557,
                 0.34187888110294534},
         .fetch = {.pb = 0, .l0 = 0, .l1 = 2435, .l2 = 16, .mem = 26}});
}

TEST(Golden, FdpPreset) {
  check({.preset = "fdp",
         .hmean_ipc = 0.43780590540863101,
         .ipc = {0.40581670612106863, 0.66570541259982252,
                 0.34649806570818176},
         .fetch = {.pb = 17, .l0 = 0, .l1 = 2254, .l2 = 24, .mem = 4}});
}

TEST(Golden, FdpL0Preset) {
  check({.preset = "fdp-l0",
         .hmean_ipc = 0.4484272971039297,
         .ipc = {0.41427880963888697, 0.69556147873449992,
                 0.35229540918163671},
         .fetch = {.pb = 337, .l0 = 1922, .l1 = 176, .l2 = 29, .mem = 4}});
}

TEST(Golden, FdpL0Pb16Preset) {
  check({.preset = "fdp-l0-pb16",
         .hmean_ipc = 0.45469006476401358,
         .ipc = {0.41666666666666669, 0.7160582199952279,
                 0.35696865147819878},
         .fetch = {.pb = 431, .l0 = 1911, .l1 = 120, .l2 = 28, .mem = 3}});
}

TEST(Golden, ClgpPreset) {
  check({.preset = "clgp",
         .hmean_ipc = 0.44540963860235305,
         .ipc = {0.41359343765078926, 0.69195296287756514,
                 0.34814642919301503},
         .fetch = {.pb = 2444, .l0 = 0, .l1 = 24, .l2 = 17, .mem = 4}});
}

TEST(Golden, ClgpL0Preset) {
  check({.preset = "clgp-l0",
         .hmean_ipc = 0.44569635295462506,
         .ipc = {0.4139643990616807, 0.69235205906102204,
                 0.34830808520517731},
         .fetch = {.pb = 2414, .l0 = 51, .l1 = 1, .l2 = 17, .mem = 4}});
}

TEST(Golden, ClgpL0Pb16Preset) {
  check({.preset = "clgp-l0-pb16",
         .hmean_ipc = 0.45788148110627441,
         .ipc = {0.42022692253817062, 0.74355797819623393,
                 0.35368656804384985},
         .fetch = {.pb = 2463, .l0 = 32, .l1 = 1, .l2 = 17, .mem = 3}});
}

// The two sequential/stream families newly reachable through the
// registry (next-line was dead code before it; stream is the registry's
// proof-of-extension scheme). Pinned like the paper's three so registry
// plumbing changes cannot silently alter what these presets simulate.

TEST(Golden, NextLinePreset) {
  check({.preset = "next-line",
         .hmean_ipc = 0.42538214233554694,
         .ipc = {0.39341682512622123, 0.62657897484079761,
                 0.34309073237665083},
         .fetch = {.pb = 40, .l0 = 0, .l1 = 2261, .l2 = 0, .mem = 12}});
}

TEST(Golden, NextLineL0Preset) {
  check({.preset = "next-line-l0",
         .hmean_ipc = 0.43265021960061251,
         .ipc = {0.39790437031633397, 0.65260411003588126,
                 0.34619822314526366},
         .fetch = {.pb = 338, .l0 = 1900, .l1 = 205, .l2 = 6, .mem = 12}});
}

TEST(Golden, StreamPreset) {
  check({.preset = "stream",
         .hmean_ipc = 0.41193070051908887,
         .ipc = {0.37921880925293894, 0.59384584941129914,
                 0.33762799594913917},
         .fetch = {.pb = 765, .l0 = 0, .l1 = 1503, .l2 = 14, .mem = 26}});
}

TEST(Golden, StreamL0Preset) {
  check({.preset = "stream-l0",
         .hmean_ipc = 0.42014998335194981,
         .ipc = {0.38513383400731754, 0.62023354345354964,
                 0.34112096407457937},
         .fetch = {.pb = 210, .l0 = 1893, .l1 = 310, .l2 = 15, .mem = 26}});
}

// The MANA and program-map families (registered by this repo's later
// growth): grammar round-trips first — the composition grammar has to
// pick up new registered names without a presets-table edit — then
// pinned runs including one node / pre-buffer variant each.

TEST(Golden, NewFamilySpecsRoundTripThroughTheGrammar) {
  const struct {
    const char* spec;
    const char* canonical;
  } kCases[] = {
      {"mana", "mana"},
      {"mana+l0", "mana-l0"},
      {"mana-l0", "mana-l0"},
      {"mana+pb16", "mana-pb16"},
      {"mana-l0@0.09um", "mana-l0@090"},
      {"program-map", "program-map"},
      {"program-map+l0", "program-map-l0"},
      {"program-map+pb16+l0", "program-map-l0-pb16"},
      {"program-map@090", "program-map@090"},
  };
  for (const auto& kase : kCases) {
    const auto c = parse_spec(kase.spec);
    ASSERT_TRUE(c.has_value()) << kase.spec;
    EXPECT_EQ(canonical_name(*c), kase.canonical) << kase.spec;
    EXPECT_EQ(parse_spec(canonical_name(*c)), c) << kase.spec;
  }
}

TEST(Golden, ManaPreset) {
  check({.preset = "mana",
         .hmean_ipc = 0.40792680972889894,
         .ipc = {0.37688442211055279, 0.57589714066398001,
                 0.33732433951658236},
         .fetch = {.pb = 219, .l0 = 0, .l1 = 2037, .l2 = 14, .mem = 26}});
}

TEST(Golden, ManaL0Preset) {
  check({.preset = "mana-l0",
         .hmean_ipc = 0.42035597411283165,
         .ipc = {0.38503497401013925, 0.62087514223647455,
                 0.34141207259486828},
         .fetch = {.pb = 163, .l0 = 1887, .l1 = 363, .l2 = 15, .mem = 26}});
}

TEST(Golden, ManaNodeVariantPreset) {
  check({.preset = "mana@090",
         .hmean_ipc = 0.42626881510707815,
         .ipc = {0.39246467817896391, 0.61157530059099241,
                 0.35030062459868078},
         .fetch = {.pb = 250, .l0 = 0, .l1 = 2043, .l2 = 17, .mem = 26}});
}

TEST(Golden, ProgramMapPreset) {
  check({.preset = "program-map",
         .hmean_ipc = 0.40737314618739867,
         .ipc = {0.37681341455755823, 0.56961184397836195,
                 0.33842770133092714},
         .fetch = {.pb = 758, .l0 = 0, .l1 = 1524, .l2 = 14, .mem = 26}});
}

TEST(Golden, ProgramMapL0Preset) {
  check({.preset = "program-map-l0",
         .hmean_ipc = 0.41938666191449669,
         .ipc = {0.38481272447408926, 0.61521115211152111,
                 0.34139264990328821},
         .fetch = {.pb = 189, .l0 = 1892, .l1 = 330, .l2 = 15, .mem = 26}});
}

TEST(Golden, ProgramMapPb16VariantPreset) {
  check({.preset = "program-map-pb16",
         .hmean_ipc = 0.40653603186542059,
         .ipc = {0.37671877943115462, 0.56917970602181134,
                 0.3369266183818988},
         .fetch = {.pb = 792, .l0 = 0, .l1 = 1486, .l2 = 14, .mem = 26}});
}

}  // namespace
}  // namespace prestage::sim
