// Tests for the presets, report rendering and figure-shape properties —
// cheap versions of the qualitative claims each paper figure makes, run
// through the campaign engine like the figures themselves.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>

#include "campaign/engine.hpp"
#include "campaign/report.hpp"
#include "common/prestage_assert.hpp"
#include "sim/presets.hpp"
#include "sim/report.hpp"

namespace prestage::sim {
namespace {

TEST(Presets, NamesAndShapes) {
  EXPECT_EQ(preset_label("clgp-l0-pb16"), "CLGP+L0+PB:16");
  const auto cfg =
      make_config("clgp-l0-pb16", cacti::TechNode::um045, 8192);
  EXPECT_EQ(cfg.prefetcher, "clgp");
  EXPECT_TRUE(cfg.has_l0);
  EXPECT_EQ(cfg.prebuffer_entries, 16u);
  EXPECT_TRUE(cpu::DerivedTimings::from(cfg).prebuffer_pipelined);
  EXPECT_EQ(cfg.l1i_size, 8192u);
}

TEST(Presets, EveryNamedPresetRoundTripsCanonically) {
  for (const std::string& name : all_presets()) {
    const auto c = parse_spec(name);
    ASSERT_TRUE(c.has_value()) << name;
    EXPECT_EQ(canonical_name(*c), name) << "named presets are canonical";
    EXPECT_EQ(parse_spec(canonical_name(*c)), c) << name;
  }
}

TEST(Presets, CompositionsCanonicalizeAndRoundTrip) {
  const struct {
    const char* spec;
    const char* canonical;
  } kCases[] = {
      {"fdp+l0+pb16", "fdp-l0-pb16"},
      {"fdp-l0-pb16", "fdp-l0-pb16"},
      {"clgp+l0@090", "clgp-l0@090"},
      {"clgp+pb16+l0", "clgp-l0-pb16"},  // canonical order is fixed
      {"next-line+l0", "next-line-l0"},
      {"stream+l0+pb16", "stream-l0-pb16"},
      {"base+pipelined", "base-pipelined"},
      {"base+ideal", "base-ideal"},
      {"clgp-l0-pb8@0.09um", "clgp-l0-pb8@090"},
  };
  for (const auto& kase : kCases) {
    const auto c = parse_spec(kase.spec);
    ASSERT_TRUE(c.has_value()) << kase.spec;
    EXPECT_EQ(canonical_name(*c), kase.canonical) << kase.spec;
    // Round trip: the canonical form parses back to the same value.
    EXPECT_EQ(parse_spec(canonical_name(*c)), c) << kase.spec;
  }
}

TEST(Presets, CompositionsBuildTheRightMachine) {
  const auto c = parse_spec("stream+l0@090");
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->prefetcher, "stream");
  EXPECT_TRUE(c->has_l0);
  ASSERT_TRUE(c->node.has_value());
  EXPECT_EQ(*c->node, cacti::TechNode::um090);
  // The composition's node override wins over the build-time node.
  const auto cfg = make_config(*c, cacti::TechNode::um045, 4096);
  EXPECT_EQ(cfg.node, cacti::TechNode::um090);
  EXPECT_EQ(cfg.prefetcher, "stream");
  EXPECT_TRUE(cfg.has_l0);
  EXPECT_EQ(cfg.prebuffer_entries,
            one_cycle_prebuffer_entries(cacti::TechNode::um090));
  EXPECT_FALSE(cpu::DerivedTimings::from(cfg).prebuffer_pipelined);

  // pb4 fits the 0.045um one-cycle reach; pb16 does not and pipelines.
  const auto pipelined = [](const char* spec) {
    return cpu::DerivedTimings::from(
               make_config(spec, cacti::TechNode::um045, 4096))
        .prebuffer_pipelined;
  };
  EXPECT_FALSE(pipelined("clgp-pb4"));
  EXPECT_TRUE(pipelined("clgp-pb16"));
}

TEST(Presets, MalformedSpecsAreRejected) {
  for (const char* bad :
       {"", "frobnicate", "fdp+", "+fdp", "fdp+xyz", "l0", "pb16",
        "fdp+pb0", "fdp+pbx", "fdp@", "fdp@bogus", "fdp-l0@", "-fdp",
        "next-line-"}) {
    EXPECT_FALSE(parse_spec(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(Presets, DisplayLabelsMatchTheHistoricalFigureLabels) {
  const struct {
    const char* spec;
    const char* label;
  } kCases[] = {
      {"base", "base"},
      {"base-ideal", "ideal"},
      {"base-l0", "base+L0"},
      {"base-pipelined", "base pipelined"},
      {"fdp", "FDP"},
      {"fdp-l0", "FDP+L0"},
      {"fdp-l0-pb16", "FDP+L0+PB:16"},
      {"clgp", "CLGP"},
      {"clgp-l0", "CLGP+L0"},
      {"clgp-l0-pb16", "CLGP+L0+PB:16"},
      {"next-line", "NL"},
      {"next-line-l0", "NL+L0"},
      {"stream", "Stream"},
      {"stream-l0", "Stream+L0"},
  };
  for (const auto& kase : kCases) {
    EXPECT_EQ(preset_label(kase.spec), kase.label) << kase.spec;
  }
}

TEST(Presets, OneCyclePreBufferEntriesMatchPaperSection5) {
  EXPECT_EQ(one_cycle_prebuffer_entries(cacti::TechNode::um090), 8u);
  EXPECT_EQ(one_cycle_prebuffer_entries(cacti::TechNode::um045), 4u);
}

TEST(Presets, PaperSizesAxis) {
  const auto& sizes = paper_l1_sizes();
  ASSERT_EQ(sizes.size(), 9u);
  EXPECT_EQ(sizes.front(), 256u);
  EXPECT_EQ(sizes.back(), 65536u);
}

TEST(Presets, InstructionBudgetEnvParsesLikeInstrs) {
  // Other cases in this process read the default: restore the variable.
  const char* saved = std::getenv("PRESTAGE_INSTRS");
  const std::optional<std::string> restore =
      saved != nullptr ? std::optional<std::string>(saved) : std::nullopt;

  ::setenv("PRESTAGE_INSTRS", "2000", 1);
  EXPECT_EQ(default_instructions(), 2000u);
  ::setenv("PRESTAGE_INSTRS", "100k", 1);
  EXPECT_EQ(default_instructions(), 102400u) << "same K suffix as --instrs";
  // Each of these once ran a silently wrong budget: 8 instructions, the
  // 120,000 default, and 2^63-1 (a false "machine wedged").
  for (const char* bad : {"5e6", "abc", "99999999999999999999"}) {
    ::setenv("PRESTAGE_INSTRS", bad, 1);
    try {
      (void)default_instructions();
      ADD_FAILURE() << bad << " was accepted";
    } catch (const SimError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("PRESTAGE_INSTRS"), std::string::npos) << what;
      EXPECT_NE(what.find(bad), std::string::npos) << what;
    }
  }

  if (restore) {
    ::setenv("PRESTAGE_INSTRS", restore->c_str(), 1);
  } else {
    ::unsetenv("PRESTAGE_INSTRS");
  }
}

TEST(Report, SizeChartRendersAllSeries) {
  const std::vector<std::uint64_t> sizes = {256, 512};
  const std::vector<Series> series = {{"a", {1.0, 2.0}}, {"b", {3.0, 4.0}}};
  const std::string text = render_size_chart("t", sizes, series);
  EXPECT_NE(text.find("256B"), std::string::npos);
  EXPECT_NE(text.find("a"), std::string::npos);
  EXPECT_NE(text.find("4.000"), std::string::npos);
  EXPECT_NE(text.find("csv:"), std::string::npos);
}

TEST(Report, SourceChartIncludesL0WhenAsked) {
  SourceBreakdown sb;
  sb.add(FetchSource::PreBuffer, 90);
  sb.add(FetchSource::L0, 10);
  const std::string with_l0 =
      render_source_chart("t", {4096}, {sb}, true);
  EXPECT_NE(with_l0.find("il0"), std::string::npos);
  const std::string without =
      render_source_chart("t", {4096}, {sb}, false);
  EXPECT_EQ(without.find("il0"), std::string::npos);
}

TEST(Report, SpeedupPct) {
  EXPECT_NEAR(speedup_pct(1.2, 1.0), 20.0, 1e-9);
  EXPECT_NEAR(speedup_pct(0.9, 1.0), -10.0, 1e-9);
  EXPECT_THROW((void)speedup_pct(1.0, 0.0), SimError);
}

// --- figure-shape properties (cheap versions of the paper's claims) -----

/// A presets x L1 sizes grid over @p suite at 0.045um and 10k
/// instructions, simulated in memory through the campaign engine.
class ShapeGrid {
 public:
  ShapeGrid(std::vector<std::string> presets,
            std::vector<std::uint64_t> sizes,
            std::vector<std::string> suite) {
    spec_.presets = std::move(presets);
    spec_.nodes = {kNode};
    spec_.l1_sizes = std::move(sizes);
    spec_.benchmarks = std::move(suite);
    spec_.instructions = 10000;
    store_ = campaign::run_in_memory(spec_);
  }

  [[nodiscard]] double hmean(const std::string& preset,
                             std::uint64_t l1i_size) const {
    return campaign::ResultGrid(spec_, store_).hmean_ipc(preset, kNode,
                                                         l1i_size);
  }

 private:
  static constexpr cacti::TechNode kNode = cacti::TechNode::um045;
  campaign::CampaignSpec spec_;
  campaign::ResultStore store_;
};

TEST(FigureShape, Fig1IdealDominatesAndBaseSuffersLatency) {
  // Figure 1: ideal >= pipelined >= base at a multi-cycle size.
  const ShapeGrid grid({"base-ideal", "base-pipelined", "base"}, {8192},
                       {"eon", "gcc", "gzip"});
  const double ideal = grid.hmean("base-ideal", 8192);
  const double pipelined = grid.hmean("base-pipelined", 8192);
  const double base = grid.hmean("base", 8192);
  EXPECT_GE(ideal, pipelined * 0.999);
  EXPECT_GT(pipelined, base);
}

TEST(FigureShape, Fig5ClgpBeatsFdpBeatsBaseAt4KB) {
  const ShapeGrid grid({"clgp-l0-pb16", "fdp-l0-pb16", "base-pipelined"},
                       {4096}, {"eon", "vortex", "crafty"});
  const double clgp = grid.hmean("clgp-l0-pb16", 4096);
  const double fdp = grid.hmean("fdp-l0-pb16", 4096);
  const double base = grid.hmean("base-pipelined", 4096);
  EXPECT_GT(clgp, fdp * 0.995);  // CLGP at least matches FDP
  EXPECT_GT(clgp, base);         // and clearly beats no-prefetch
}

TEST(FigureShape, ClgpInsensitiveToL1Size) {
  // Paper §5.1: "CLGP almost saturates its performance at very small L1
  // cache sizes".
  const ShapeGrid grid({"clgp-l0"}, {1024, 32768}, {"eon", "crafty"});
  const double small = grid.hmean("clgp-l0", 1024);
  const double large = grid.hmean("clgp-l0", 32768);
  EXPECT_GT(small, large * 0.85);  // within 15% across a 32x size range
}

}  // namespace
}  // namespace prestage::sim
