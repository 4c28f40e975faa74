// Integration tests: the whole machine, end to end.
#include <gtest/gtest.h>

#include <memory>

#include "common/cancel.hpp"
#include "cpu/cpu.hpp"
#include "sim/presets.hpp"
#include "workload/synthetic_spec.hpp"

namespace prestage::cpu {
namespace {

MachineConfig tiny(const std::string& bench, const std::string& kind,
                   std::uint64_t instrs = 15000) {
  MachineConfig cfg;
  cfg.benchmark = bench;
  cfg.prefetcher = kind;
  cfg.max_instructions = instrs;
  cfg.l1i_size = 4096;
  return cfg;
}

class EveryBenchmark : public ::testing::TestWithParam<std::string> {};

TEST_P(EveryBenchmark, RunsToCompletionWithSaneIpc) {
  Cpu cpu(tiny(GetParam(), "clgp"));
  const RunResult r = cpu.run();
  // The run stops at the first commit group crossing the target, so it
  // may overshoot by at most commit width - 1.
  EXPECT_GE(r.instructions, 15000u);
  EXPECT_LT(r.instructions, 15004u);
  EXPECT_GT(r.ipc, 0.05);
  EXPECT_LE(r.ipc, 4.0);  // machine width bound
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, EveryBenchmark,
                         ::testing::Values("gzip", "vpr", "gcc", "mcf",
                                           "crafty", "parser", "eon",
                                           "perlbmk", "gap", "vortex",
                                           "bzip2", "twolf"));

TEST(Machine, DeterministicAcrossRuns) {
  const RunResult a = Cpu(tiny("gcc", "clgp")).run();
  const RunResult b = Cpu(tiny("gcc", "clgp")).run();
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.recoveries, b.recoveries);
  EXPECT_EQ(a.fetch_sources.count(FetchSource::PreBuffer),
            b.fetch_sources.count(FetchSource::PreBuffer));
}

TEST(Machine, FetchSourceFractionsSumToOne) {
  for (const char* k : {"base", "fdp", "clgp"}) {
    const RunResult r = Cpu(tiny("twolf", k)).run();
    double total = 0;
    for (int i = 0; i < kNumFetchSources; ++i) {
      total += r.fetch_sources.fraction(static_cast<FetchSource>(i));
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(Machine, IdealCacheIsAnUpperBoundForBase) {
  MachineConfig base = tiny("gcc", "base");
  MachineConfig ideal = base;
  ideal.ideal_l1 = true;
  EXPECT_GE(Cpu(ideal).run().ipc, Cpu(base).run().ipc);
}

TEST(Machine, PipeliningHelpsTheMultiCycleBase) {
  MachineConfig base = tiny("eon", "base");
  MachineConfig pipe = base;
  pipe.l1i_pipelined = true;
  EXPECT_GT(Cpu(pipe).run().ipc, Cpu(base).run().ipc);
}

TEST(Machine, L0HelpsTheBase) {
  MachineConfig base = tiny("eon", "base");
  MachineConfig l0 = base;
  l0.has_l0 = true;
  EXPECT_GT(Cpu(l0).run().ipc, Cpu(base).run().ipc);
}

TEST(Machine, ClgpFetchesMostlyFromPrestageBuffer) {
  // Paper §5.2: CLGP serves >86% of fetches from the pre-buffer (with a
  // 4-entry buffer); allow slack for the reduced trace length.
  const RunResult r = Cpu(tiny("eon", "clgp")).run();
  EXPECT_GT(r.fetch_sources.fraction(FetchSource::PreBuffer), 0.70);
}

TEST(Machine, FdpPbShareShrinksWithCacheSizeClgpDoesNot) {
  // Paper Figure 7(a): FDP's pre-buffer share collapses as the L1 grows
  // (filtering suppresses prefetches); CLGP's stays high.
  auto pb_share = [](const char* k, std::uint64_t l1) {
    MachineConfig cfg = tiny("eon", k);
    cfg.l1i_size = l1;
    return Cpu(cfg).run().fetch_sources.fraction(FetchSource::PreBuffer);
  };
  EXPECT_LT(pb_share("fdp", 65536), 0.35);
  EXPECT_GT(pb_share("clgp", 65536), 0.70);
}

TEST(Machine, ClgpBeatsNoPrefetchOnFetchBoundWorkload) {
  // eon: large instruction footprint, predictable branches — the
  // fetch-bound case the paper's mechanisms target (4KB blocking L1).
  const double base = Cpu(tiny("eon", "base")).run().ipc;
  const double clgp = Cpu(tiny("eon", "clgp")).run().ipc;
  EXPECT_GT(clgp, base * 1.05);
}

TEST(Machine, WarmupExcludesColdStart) {
  MachineConfig cold = tiny("gcc", "base", 12000);
  MachineConfig warm = cold;
  warm.warmup_instructions = 6000;
  warm.max_instructions = 6000;
  const RunResult rc = Cpu(cold).run();
  const RunResult rw = Cpu(warm).run();
  EXPECT_GE(rw.instructions, 6000u);
  EXPECT_LT(rw.instructions, 6008u);
  // Post-warmup IPC should not be lower than the cold-start-included run.
  EXPECT_GE(rw.ipc, rc.ipc * 0.95);
}

TEST(Machine, RecoveriesMatchDriverMispredictions) {
  Cpu cpu(tiny("twolf", "clgp"));
  const RunResult r = cpu.run();
  EXPECT_GT(r.recoveries, 0u);
  // Every recovery stems from a verified divergence; some divergences may
  // still be in flight at the end of the run.
  EXPECT_LE(r.recoveries, cpu.driver().stream_mispredictions.value());
  EXPECT_GE(cpu.driver().stream_mispredictions.value(), r.recoveries);
}

TEST(Machine, DerivedTimingsFollowTable3) {
  MachineConfig cfg = tiny("gzip", "base");
  cfg.node = cacti::TechNode::um045;
  cfg.l1i_size = 4096;
  const DerivedTimings t = DerivedTimings::from(cfg);
  EXPECT_EQ(t.l1i_latency, 4);
  EXPECT_EQ(t.l2_latency, 24);
  EXPECT_EQ(t.l0_size, 256u);
  cfg.node = cacti::TechNode::um090;
  const DerivedTimings t90 = DerivedTimings::from(cfg);
  EXPECT_EQ(t90.l1i_latency, 3);
  EXPECT_EQ(t90.l2_latency, 17);
  EXPECT_EQ(t90.l0_size, 512u);
}

TEST(Machine, SixteenEntryPreBufferIsMultiCycle) {
  MachineConfig cfg = tiny("gzip", "clgp");
  cfg.prebuffer_entries = 16;
  cfg.node = cacti::TechNode::um045;
  EXPECT_EQ(DerivedTimings::from(cfg).prebuffer_latency, 3);
  cfg.node = cacti::TechNode::um090;
  EXPECT_EQ(DerivedTimings::from(cfg).prebuffer_latency, 2);
}

TEST(Machine, NextLinePrefetcherRuns) {
  const RunResult r = Cpu(tiny("eon", "next-line")).run();
  EXPECT_GT(r.prefetches_issued, 0u);
  EXPECT_GT(r.ipc, 0.05);
}

TEST(Machine, TickAdvancesCycleByCycle) {
  Cpu cpu(tiny("gzip", "base", 100));
  EXPECT_EQ(cpu.cycle(), 0u);
  cpu.tick();
  cpu.tick();
  EXPECT_EQ(cpu.cycle(), 2u);
}

TEST(Machine, HugeBudgetRunsUntilItsHostBudgetNotAWedge) {
  // 2^60 * 400 wraps to 0 in 64 bits, so an unsaturated wedge cap would
  // be 10,000 cycles and fire a false "machine wedged" long before the
  // 50 ms host budget cancels the run.
  MachineConfig cfg = tiny("eon", "base", 1ULL << 60U);
  cfg.max_host_seconds = 0.05;
  EXPECT_THROW((void)Cpu(cfg).run(), PointCancelled);
}

TEST(SharedWorkload, CpusOfOneBenchmarkAndSeedShareOneProgram) {
  const Cpu a(tiny("vortex", "clgp"));
  const Cpu b(tiny("vortex", "base"));
  EXPECT_EQ(&a.program(), &b.program())
      << "every machine shape over one (benchmark, seed) reads one program";
  MachineConfig reseeded = tiny("vortex", "clgp");
  reseeded.seed = 2;
  EXPECT_NE(&Cpu(reseeded).program(), &a.program())
      << "the seed is part of the workload's identity";
}

TEST(SharedWorkload, CpuRunsTheConfiguredSpecsProgram) {
  // A private spec, not the shared one: the Cpu must read the program
  // it was handed, not a copy of it.
  const auto spec =
      std::make_shared<const workload::SyntheticWorkloadSpec>("gcc", 1);
  MachineConfig cfg = tiny("gcc", "clgp", 3000);
  cfg.workload = spec;
  Cpu from_spec(cfg);
  EXPECT_EQ(&from_spec.program(), &spec->program());
  // Same (benchmark, seed) through the shared cache: same timing.
  EXPECT_EQ(from_spec.run().cycles,
            Cpu(tiny("gcc", "clgp", 3000)).run().cycles);
}

}  // namespace
}  // namespace prestage::cpu
