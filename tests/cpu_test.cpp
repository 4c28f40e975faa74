// Integration tests: the whole machine, end to end.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/cancel.hpp"
#include "common/rng.hpp"
#include "cpu/backend.hpp"
#include "cpu/cpu.hpp"
#include "mem/memsys.hpp"
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

// --- back-end forecast/stage agreement -------------------------------------
//
// The event-horizon skip folds every cycle the back-end's idle_plan()
// calls idle into one count of its per_cycle counter. So on such a
// cycle the stages must change nothing else: no commit, issue or
// dispatch, and no statistic but that counter, which rises by one.

/// Everything a back-end cycle can change, as seen from outside: its
/// counters (ruu_full_stalls last), commits and decode-pipe room.
std::vector<std::uint64_t> backend_state(const Backend& b) {
  return {b.wrong_path_dispatched.value(),
          b.dcache_hits.value(),
          b.dcache_misses.value(),
          b.store_commits.value(),
          b.committed(),
          b.can_accept() ? 1U : 0U,
          b.ruu_full_stalls.value()};
}

TEST(BackendProperty, IdleForecastFoldsIntoOneStallCount) {
  std::uint64_t folded = 0;
  std::uint64_t stalls = 0;
  std::uint64_t seed = 3000;
  for (const char* bench : {"eon", "gcc", "mcf"}) {
    // A back-end with its memory system, as bench/micro/micro_backend.cpp
    // builds it, fed from the oracle by a rig that stands in for fetch.
    MachineConfig cfg =
        sim::make_config("base-pipelined", cacti::TechNode::um045, 4096);
    cfg.benchmark = bench;
    const auto spec = workload::synthetic_workload(bench, cfg.seed);
    const workload::Program& program = spec->program();
    Oracle oracle(program, oracle_trace_seed(cfg.seed));
    mem::MemSystemConfig mem_cfg;
    mem_cfg.l2_latency = DerivedTimings::from(cfg).l2_latency;
    mem_cfg.mem_latency = cfg.mem_latency;
    mem_cfg.l1_line_bytes = cfg.line_bytes;
    mem::MemSystem mem(mem_cfg);
    Backend backend(cfg, oracle, program, mem);

    Rng rng(seed++);
    Addr wrong_pc = kNoAddr;  // set while a culprit is unresolved
    for (Cycle t = 0; t < 20000; ++t) {
      const IdlePlan plan = backend.idle_plan(t);
      const bool idle =
          plan.next_event > t && mem.idle_plan(t).next_event > t;
      // Random accept pressure: bursts of up to a fetch width.
      const std::uint64_t accepts =
          rng.chance(0.4) ? 1 + rng.below(cfg.width) : 0;
      const auto before = backend_state(backend);

      backend.begin_cycle(t);
      mem.tick(t);
      if (backend.recovery_due(t)) {
        ASSERT_FALSE(idle) << bench << " cycle " << t;
        backend.squash_younger_than_culprit();
        wrong_pc = kNoAddr;
      }
      backend.tick_commit(t);
      backend.tick_issue(t);
      backend.tick_dispatch(t);

      if (idle && accepts == 0) {
        ++folded;
        auto expected = before;
        if (plan.per_cycle == &backend.ruu_full_stalls) {
          ++expected.back();
          ++stalls;
        } else {
          ASSERT_EQ(plan.per_cycle, nullptr);
        }
        ASSERT_EQ(backend_state(backend), expected)
            << bench << " cycle " << t;
        const IdlePlan after = backend.idle_plan(t);
        ASSERT_EQ(after.next_event, plan.next_event)
            << bench << " cycle " << t;
        ASSERT_EQ(after.per_cycle, plan.per_cycle);
      }

      for (std::uint64_t i = 0; i < accepts && backend.can_accept(); ++i) {
        frontend::FetchedInst f;
        if (wrong_pc != kNoAddr) {
          // Down the wrong path until the culprit resolves.
          f.pc = program.contains_pc(wrong_pc) ? wrong_pc
                                               : program.code_begin();
          f.wrong_path = true;
          wrong_pc = f.pc + kInstrBytes;
        } else {
          f.pc = oracle.remainder().start;
          f.oracle_seq = oracle.seq_at_cursor();
          f.culprit = rng.chance(0.01);
          if (f.culprit) wrong_pc = f.pc + kInstrBytes;
          oracle.consume(1);
        }
        backend.accept(f);
      }
    }
  }
  // The fold was exercised, RUU-full stalls included.
  EXPECT_GT(folded, 1000u);
  EXPECT_GT(stalls, 1000u);
}

}  // namespace
}  // namespace prestage::cpu
