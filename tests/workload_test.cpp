// Calibration and invariant tests for the synthetic workload substrate.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bpred/bimodal.hpp"
#include "read_stream.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"
#include "workload/program.hpp"
#include "workload/synthetic_spec.hpp"
#include "workload/trace.hpp"

namespace prestage::workload {
namespace {

TEST(Profiles, AllTwelveBenchmarksPresent) {
  EXPECT_EQ(benchmark_names().size(), 12u);
  for (const auto name : benchmark_names()) {
    EXPECT_EQ(profile_for(name).name, name);
  }
  EXPECT_THROW((void)profile_for("nonexistent"), SimError);
}

TEST(Profiles, FootprintOrderingMatchesSpecLore) {
  auto footprint = [](std::string_view name) {
    return generate_program(profile_for(name)).footprint_bytes();
  };
  // Tight-loop codes are small; gcc is the largest.
  const auto gzip = footprint("gzip");
  const auto mcf = footprint("mcf");
  const auto gcc = footprint("gcc");
  const auto eon = footprint("eon");
  EXPECT_LT(gzip, 16ULL << 10U);
  EXPECT_LT(mcf, 16ULL << 10U);
  EXPECT_GT(gcc, 80ULL << 10U);
  EXPECT_GT(gcc, eon);
  EXPECT_GT(eon, gzip);
}

TEST(Generator, ProgramValidates) {
  for (const auto& p : all_profiles()) {
    const Program prog = generate_program(p);
    EXPECT_NO_THROW(prog.validate()) << p.name;
    EXPECT_EQ(prog.num_regions, p.regions) << p.name;
    EXPECT_EQ(prog.region_roots.size(), p.regions) << p.name;
  }
}

TEST(Generator, DeterministicForEqualSeeds) {
  const Program a = generate_program(profile_for("gcc"), 7);
  const Program b = generate_program(profile_for("gcc"), 7);
  ASSERT_EQ(a.blocks.size(), b.blocks.size());
  for (std::size_t i = 0; i < a.blocks.size(); ++i) {
    EXPECT_EQ(a.blocks[i].start, b.blocks[i].start);
    EXPECT_EQ(a.blocks[i].term, b.blocks[i].term);
    EXPECT_EQ(a.blocks[i].num_instrs(), b.blocks[i].num_instrs());
  }
}

TEST(Generator, DifferentSeedsProduceDifferentPrograms) {
  const Program a = generate_program(profile_for("gcc"), 1);
  const Program b = generate_program(profile_for("gcc"), 2);
  bool differs = a.blocks.size() != b.blocks.size();
  for (std::size_t i = 0; !differs && i < a.blocks.size(); ++i) {
    differs = a.blocks[i].num_instrs() != b.blocks[i].num_instrs();
  }
  EXPECT_TRUE(differs);
}

TEST(Program, BlockAtFindsEveryPc) {
  const Program prog = generate_program(profile_for("twolf"));
  for (BlockId id = 0; id < prog.blocks.size(); id += 7) {
    const BasicBlock& b = prog.blocks[id];
    EXPECT_EQ(prog.block_at(b.start), id);
    EXPECT_EQ(prog.block_at(b.last_pc()), id);
  }
  EXPECT_THROW((void)prog.block_at(prog.code_end()), SimError);
  EXPECT_THROW((void)prog.block_at(0), SimError);
}

TEST(Program, StaticInstLookupMatchesBlockContents) {
  const Program prog = generate_program(profile_for("gzip"));
  const BasicBlock& b = prog.blocks[5];
  for (std::uint32_t i = 0; i < b.num_instrs(); ++i) {
    const StaticInst& si =
        prog.static_inst_at(b.start + i * kInstrBytes);
    EXPECT_EQ(si.op, b.instrs[i].op);
  }
}

class TraceTest : public ::testing::TestWithParam<std::string_view> {};

TEST_P(TraceTest, WalkerRunsAndTerminatesStreams) {
  const Program prog = generate_program(profile_for(GetParam()));
  TraceGenerator walker(prog, 1);
  std::uint64_t instrs = 0;
  while (instrs < 20000) {
    const auto insts = read_stream(walker);
    ASSERT_GE(insts.size(), 1u);
    ASSERT_LE(insts.size(), bpred::kMaxStreamInstrs);
    // Stream instructions are sequential; only the last may jump.
    for (std::size_t i = 0; i + 1 < insts.size(); ++i) {
      EXPECT_EQ(insts[i].next_pc, insts[i].pc + kInstrBytes);
      EXPECT_FALSE(insts[i].ends_stream);
    }
    EXPECT_TRUE(insts.back().ends_stream);
    instrs += insts.size();
  }
  EXPECT_EQ(walker.instructions(), instrs);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, TraceTest,
                         ::testing::ValuesIn(benchmark_names()));

TEST(Trace, DeterministicReplay) {
  const Program prog = generate_program(profile_for("vpr"));
  TraceGenerator a(prog, 3);
  TraceGenerator b(prog, 3);
  for (int i = 0; i < 200; ++i) {
    const auto ca = read_stream(a);
    const auto cb = read_stream(b);
    ASSERT_EQ(ca.size(), cb.size());
    for (std::size_t j = 0; j < ca.size(); ++j) {
      EXPECT_EQ(ca[j].pc, cb[j].pc);
      EXPECT_EQ(ca[j].data_addr, cb[j].data_addr);
      EXPECT_EQ(ca[j].next_pc, cb[j].next_pc);
    }
  }
}

TEST(Trace, StreamLengthsAreRealistic) {
  // SPECint fetch streams average roughly 8-16 instructions.
  double total_len = 0;
  int streams = 0;
  for (const auto name : {"gzip", "gcc", "twolf"}) {
    const Program prog = generate_program(profile_for(name));
    TraceGenerator walker(prog, 1);
    std::uint64_t instrs = 0;
    while (instrs < 30000) {
      const auto insts = read_stream(walker);
      instrs += insts.size();
      total_len += static_cast<double>(insts.size());
      ++streams;
    }
  }
  const double avg = total_len / streams;
  EXPECT_GT(avg, 5.0);
  EXPECT_LT(avg, 24.0);
}

TEST(Trace, TakenBranchFrequencyIsRealistic) {
  const Program prog = generate_program(profile_for("crafty"));
  TraceGenerator walker(prog, 1);
  std::uint64_t instrs = 0;
  std::uint64_t branches = 0;
  std::uint64_t controls = 0;
  while (instrs < 50000) {
    for (const auto& d : read_stream(walker)) {
      ++instrs;
      if (d.op == OpClass::Branch) ++branches;
      if (is_control(d.op)) ++controls;
    }
  }
  // Integer codes: ~10-20% conditional branches, ~15-25% control overall.
  EXPECT_GT(static_cast<double>(branches) / instrs, 0.06);
  EXPECT_LT(static_cast<double>(branches) / instrs, 0.25);
  EXPECT_LT(static_cast<double>(controls) / instrs, 0.32);
}

TEST(Trace, DynamicFootprintTracksStaticFootprint) {
  // A long run should touch most of the static image (live code), and the
  // touched-lines count should be far larger for gcc than for gzip.
  auto touched_lines = [](std::string_view name) {
    const Program prog = generate_program(profile_for(name));
    TraceGenerator walker(prog, 1);
    std::unordered_set<Addr> lines;
    std::uint64_t instrs = 0;
    while (instrs < 400000) {
      const auto insts = read_stream(walker);
      for (const auto& d : insts) lines.insert(line_align(d.pc, 64));
      instrs += insts.size();
    }
    return lines.size() * 64;
  };
  const auto gzip_fp = touched_lines("gzip");
  const auto gcc_fp = touched_lines("gcc");
  EXPECT_GT(gcc_fp, 5 * gzip_fp);
  EXPECT_GT(gcc_fp, 24ULL << 10U);  // gcc touches a large image
  EXPECT_LT(gzip_fp, 16ULL << 10U);
}

TEST(Trace, RegionSwitchingHappens) {
  const Program prog = generate_program(profile_for("gcc"));
  TraceGenerator walker(prog, 1);
  std::uint64_t instrs = 0;
  while (instrs < 300000) instrs += read_stream(walker).size();
  EXPECT_GT(walker.region_switches(), 4u);
}

TEST(Trace, CallStackViewIsBounded) {
  const Program prog = generate_program(profile_for("gcc"));
  TraceGenerator walker(prog, 1);
  for (int i = 0; i < 2000; ++i) {
    (void)read_stream(walker);
    const auto pcs = walker.call_stack_pcs(8);
    EXPECT_LE(pcs.size(), 8u);
    for (const Addr pc : pcs) EXPECT_TRUE(prog.contains_pc(pc));
  }
}

TEST(Trace, DataAddressesRespectRegions) {
  const Program prog = generate_program(profile_for("mcf"));
  TraceGenerator walker(prog, 1);
  std::uint64_t instrs = 0;
  while (instrs < 40000) {
    const auto insts = read_stream(walker);
    for (const auto& d : insts) {
      if (d.op == OpClass::Load || d.op == OpClass::Store) {
        const bool in_stack = d.data_addr >= kStackBase &&
                              d.data_addr < kStackBase + kStackBytes;
        const bool in_heap = d.data_addr >= kHeapBase &&
                             d.data_addr < kHeapBase + prog.data_ws_bytes;
        EXPECT_TRUE(in_stack || in_heap) << std::hex << d.data_addr;
      } else {
        EXPECT_EQ(d.data_addr, kNoAddr);
      }
    }
    instrs += insts.size();
  }
}

TEST(Trace, BranchPredictabilityIsInTheRealisticBand) {
  // A plain bimodal predictor on the synthetic branch stream should land
  // in the 80-97% range typical of SPECint — neither random nor trivial.
  for (const auto name : {"gzip", "gcc", "twolf"}) {
    const Program prog = generate_program(profile_for(name));
    TraceGenerator walker(prog, 1);
    bpred::BimodalPredictor bp(16384);
    std::uint64_t branches = 0;
    std::uint64_t correct = 0;
    std::uint64_t instrs = 0;
    while (instrs < 200000) {
      const auto insts = read_stream(walker);
      for (const auto& d : insts) {
        if (d.op == OpClass::Branch) {
          ++branches;
          correct += (bp.predict(d.pc) == d.taken);
          bp.train(d.pc, d.taken);
        }
      }
      instrs += insts.size();
    }
    // Slightly below real-SPEC bimodal accuracy (~0.80-0.95): the
    // synthetic branch mix errs pessimistic on predictability, which
    // penalises (not favours) the prefetching mechanisms under study.
    const double acc = static_cast<double>(correct) / branches;
    EXPECT_GT(acc, 0.70) << name;
    EXPECT_LT(acc, 0.985) << name;
  }
}

TEST(Trace, GzipMorePredictableThanTwolf) {
  auto accuracy = [](std::string_view name) {
    const Program prog = generate_program(profile_for(name));
    TraceGenerator walker(prog, 1);
    bpred::BimodalPredictor bp(16384);
    std::uint64_t branches = 0;
    std::uint64_t correct = 0;
    std::uint64_t instrs = 0;
    while (instrs < 150000) {
      const auto insts = read_stream(walker);
      for (const auto& d : insts) {
        if (d.op == OpClass::Branch) {
          ++branches;
          correct += (bp.predict(d.pc) == d.taken);
          bp.train(d.pc, d.taken);
        }
      }
      instrs += insts.size();
    }
    return static_cast<double>(correct) / branches;
  };
  EXPECT_GT(accuracy("gzip"), accuracy("twolf"));
}

TEST(WrongPath, DataAddressesDeterministicAndInHeap) {
  const Program prog = generate_program(profile_for("vpr"));
  const Addr a1 = wrong_path_data_addr(prog, 0x1234, 7);
  const Addr a2 = wrong_path_data_addr(prog, 0x1234, 7);
  EXPECT_EQ(a1, a2);
  EXPECT_GE(a1, kHeapBase);
  EXPECT_LT(a1, kHeapBase + prog.data_ws_bytes);
  EXPECT_NE(wrong_path_data_addr(prog, 0x1234, 8), a1);
}

TEST(SyntheticWorkload, ConcurrentFirstTouchGetsOneSpec) {
  // A seed no other test uses, so all eight threads race the first build.
  constexpr std::uint64_t kSeed = 8101;
  std::vector<std::shared_ptr<const SyntheticWorkloadSpec>> got(8);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < got.size(); ++i) {
    threads.emplace_back(
        [&got, i] { got[i] = synthetic_workload("gcc", kSeed); });
  }
  for (std::thread& t : threads) t.join();
  for (const auto& spec : got) EXPECT_EQ(spec.get(), got[0].get());
  EXPECT_EQ(synthetic_workload("gcc", kSeed).get(), got[0].get());
  EXPECT_NE(synthetic_workload("gcc", kSeed + 1).get(), got[0].get());
  // The cached program is the one generate_program builds for the key.
  const Program fresh = generate_program(profile_for("gcc"), kSeed);
  EXPECT_EQ(got[0]->program().blocks.size(), fresh.blocks.size());
  EXPECT_EQ(got[0]->program().footprint_bytes(), fresh.footprint_bytes());
}

}  // namespace
}  // namespace prestage::workload
