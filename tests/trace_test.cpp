// Tests for the trace subsystem: the on-disk format round-trip, replay
// sources, the ChampSim importer, and the determinism layer (parallel ==
// serial, record -> replay reproduces a run exactly).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "campaign/engine.hpp"
#include "cpu/cpu.hpp"
#include "expect_same_stats.hpp"
#include "read_stream.hpp"
#include "sim/presets.hpp"
#include "workload/champsim.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"
#include "workload/trace_file.hpp"

namespace prestage::workload {
namespace {

std::string test_file(const std::string& name) {
  const auto* info = testing::UnitTest::GetInstance()->current_test_info();
  return testing::TempDir() + "/" + info->test_suite_name() + "." +
         info->name() + "." + name;
}

std::string fixture_path() {
  return std::string(PRESTAGE_TEST_DATA_DIR) + "/fixture.champsim.trace";
}

std::vector<DynInst> sample_records() {
  std::vector<DynInst> recs;
  for (std::uint64_t i = 0; i < 5; ++i) {
    DynInst d;
    d.pc = 0x10000 + i * kInstrBytes;
    d.op = i == 4 ? OpClass::Jump : OpClass::IntAlu;
    d.dst = static_cast<RegId>(i);
    d.src1 = 1;
    d.src2 = kNoReg;
    d.data_addr = i == 2 ? 0x20000000 + i * 64 : kNoAddr;
    d.taken = i == 4;
    d.ends_stream = i == 4;
    d.next_pc = d.taken ? 0x10000 : d.pc + kInstrBytes;
    d.seq = i;
    recs.push_back(d);
  }
  return recs;
}

// --- on-disk format ---------------------------------------------------------

TEST(TraceFile, RoundTripPreservesHeaderAndRecords) {
  const std::string path = test_file("roundtrip.pstr");
  TraceHeader h;
  h.benchmark = "eon";
  h.program_seed = 7;
  h.trace_seed = 24;
  const std::vector<DynInst> recs = sample_records();
  write_trace_file(path, h, recs);

  const TraceFile file = read_trace_file(path);
  EXPECT_EQ(file.header.version, kTraceVersion);
  EXPECT_EQ(file.header.benchmark, "eon");
  EXPECT_EQ(file.header.program_seed, 7u);
  EXPECT_EQ(file.header.trace_seed, 24u);
  ASSERT_EQ(file.records.size(), recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(file.records[i].pc, recs[i].pc);
    EXPECT_EQ(file.records[i].op, recs[i].op);
    EXPECT_EQ(file.records[i].dst, recs[i].dst);
    EXPECT_EQ(file.records[i].src1, recs[i].src1);
    EXPECT_EQ(file.records[i].src2, recs[i].src2);
    EXPECT_EQ(file.records[i].data_addr, recs[i].data_addr);
    EXPECT_EQ(file.records[i].next_pc, recs[i].next_pc);
    EXPECT_EQ(file.records[i].taken, recs[i].taken);
    EXPECT_EQ(file.records[i].ends_stream, recs[i].ends_stream);
    EXPECT_EQ(file.records[i].seq, i);
  }
  EXPECT_EQ(detect_trace_format(path), TraceFormat::Native);
}

TEST(TraceFile, MissingFileThrows) {
  EXPECT_THROW((void)read_trace_file(test_file("nonexistent.pstr")),
               SimError);
  EXPECT_THROW((void)detect_trace_format(test_file("nonexistent.pstr")),
               SimError);
}

TEST(TraceFile, BadMagicThrows) {
  const std::string path = test_file("badmagic.pstr");
  std::ofstream(path, std::ios::binary) << "NOPE, not a trace file";
  try {
    (void)read_trace_file(path);
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos);
  }
}

TEST(TraceFile, UnsupportedVersionThrows) {
  const std::string path = test_file("badversion.pstr");
  // Valid magic followed by version 99.
  const char bytes[] = {'P', 'S', 'T', 'R', 99, 0, 0, 0};
  std::ofstream(path, std::ios::binary).write(bytes, sizeof(bytes));
  try {
    (void)read_trace_file(path);
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported trace version"),
              std::string::npos);
  }
}

TEST(TraceFile, TruncatedRecordSectionThrows) {
  const std::string path = test_file("truncated.pstr");
  TraceHeader h;
  h.benchmark = "eon";
  write_trace_file(path, h, sample_records());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  bytes.resize(bytes.size() - 7);
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  try {
    (void)read_trace_file(path);
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
  }
}

TEST(TraceFile, OutOfRangeRegisterOrOpByteThrows) {
  // Register ids index fixed-size scoreboards downstream, so the reader
  // must reject them like any other corruption rather than letting an
  // out-of-range byte through.
  const std::string path = test_file("badreg.pstr");
  TraceHeader h;
  h.benchmark = "eon";
  write_trace_file(path, h, sample_records());
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  const std::size_t header_size = 4 + 4 + 8 + 8 + 8 + 1 + h.benchmark.size();

  const auto write_patched = [&](std::size_t offset, char value) {
    std::string patched = bytes;
    patched[offset] = value;
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(patched.data(), static_cast<std::streamsize>(patched.size()));
  };

  // Record layout: pc(8) data_addr(8) next_pc(8) op dst src1 src2 flags.
  write_patched(header_size + 25, 100);  // dst: valid ids are <64 or 255
  try {
    (void)read_trace_file(path);
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("bad register id"),
              std::string::npos);
  }

  write_patched(header_size + 24, 9);  // op: OpClass enumerators are 0..8
  try {
    (void)read_trace_file(path);
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("bad op class"), std::string::npos);
  }
}

// --- replay sources ---------------------------------------------------------

TEST(ReplaySource, ReproducesTheRecordedWalkerExactly) {
  const Program prog = generate_program(profile_for("gcc"), 11);
  TraceGenerator recorder(prog, 42);
  const std::vector<DynInst> recorded = read_streams(recorder, 500);

  ReplayTraceSource replay(
      std::make_shared<const std::vector<DynInst>>(recorded));
  TraceGenerator reference(prog, 42);
  while (replay.instructions() < recorded.size()) {
    const std::vector<DynInst> expected = read_stream(reference);
    const std::vector<DynInst> got = read_stream(replay);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(got[i].pc, expected[i].pc);
      EXPECT_EQ(got[i].seq, expected[i].seq);
      EXPECT_EQ(got[i].op, expected[i].op);
      EXPECT_EQ(got[i].data_addr, expected[i].data_addr);
      EXPECT_EQ(got[i].next_pc, expected[i].next_pc);
    }
  }
  EXPECT_EQ(replay.instructions(), recorder.instructions());
  EXPECT_EQ(replay.wraps(), 0u);
}

TEST(ReplaySource, TracksTheCallStackForRasRepair) {
  const Program prog = generate_program(profile_for("eon"), 3);
  TraceGenerator recorder(prog, 9);
  const std::vector<DynInst> recorded = read_streams(recorder, 2000);
  ReplayTraceSource replay(
      std::make_shared<const std::vector<DynInst>>(recorded));
  TraceGenerator reference(prog, 9);
  // Advance both in lockstep and compare the stack snapshot at every
  // stream boundary (the oracle samples it exactly there).
  for (int i = 0; replay.instructions() < recorded.size(); ++i) {
    (void)read_stream(replay);
    (void)read_stream(reference);
    EXPECT_EQ(replay.call_stack_pcs(8), reference.call_stack_pcs(8))
        << "stream " << i;
  }
}

TEST(ReplaySource, WrapsLazilyAtTheNextRequest) {
  std::vector<DynInst> recs = sample_records();
  ReplayTraceSource replay(
      std::make_shared<const std::vector<DynInst>>(recs));
  const std::vector<DynInst> first = read_stream(replay);
  ASSERT_EQ(first.size(), 5u);
  // Consuming exactly the recorded run is not a wrap: records stay
  // byte-identical to the recording.
  EXPECT_EQ(first.back().next_pc, recs[4].next_pc);
  EXPECT_EQ(replay.wraps(), 0u);
  const std::vector<DynInst> second = read_stream(replay);  // the next lap
  EXPECT_EQ(replay.wraps(), 1u);
  EXPECT_EQ(second[0].pc, recs[0].pc);
  EXPECT_EQ(second[0].seq, 5u);  // seq keeps counting across laps
}

// --- ChampSim import --------------------------------------------------------

TEST(ChampSimImport, FixtureClassifiesStaticsAndBuildsAValidImage) {
  ChampSimImportStats st;
  const auto spec = import_champsim_trace(fixture_path(), 0, &st);
  EXPECT_EQ(st.records, 182u);
  EXPECT_EQ(st.unique_pcs, 10u);
  EXPECT_EQ(st.branches, 5u);
  EXPECT_EQ(st.loads, 1u);
  EXPECT_EQ(st.stores, 1u);
  EXPECT_GT(st.streams, 0u);

  const Program& prog = spec->program();
  prog.validate();  // throws on structural breakage
  EXPECT_EQ(prog.footprint_bytes(), 10u * kInstrBytes);

  // The remapped image is dense: every dynamic PC resolves to a static
  // instruction whose class matches the dynamic record stream.
  std::uint64_t calls = 0;
  std::uint64_t returns = 0;
  for (const DynInst& d : spec->records()) {
    ASSERT_TRUE(prog.contains_pc(d.pc));
    EXPECT_EQ(prog.static_inst_at(d.pc).op, d.op);
    if (d.op == OpClass::Call) ++calls;
    if (d.op == OpClass::Return) ++returns;
  }
  EXPECT_GT(calls, 0u);
  EXPECT_EQ(calls, returns);
}

TEST(ChampSimImport, MaxRecordsCapsTheImport) {
  ChampSimImportStats st;
  (void)import_champsim_trace(fixture_path(), 10, &st);
  EXPECT_EQ(st.records, 10u);
}

TEST(ChampSimImport, RejectsMissingAndMalformedFiles) {
  EXPECT_THROW((void)import_champsim_trace(test_file("gone.trace")),
               SimError);
  const std::string path = test_file("ragged.trace");
  std::ofstream(path, std::ios::binary) << std::string(100, 'x');
  EXPECT_THROW((void)import_champsim_trace(path), SimError);
}

TEST(ChampSimImport, FixtureRunsEndToEndThroughClgp) {
  // Acceptance: an external ChampSim trace drives the full CLGP pipeline.
  const auto spec = import_champsim_trace(fixture_path());
  cpu::MachineConfig cfg =
      sim::make_config("clgp", cacti::TechNode::um045, 4096);
  cfg.benchmark = spec->name();
  cfg.max_instructions = 2000;
  cfg.workload = spec;
  cpu::Cpu machine(cfg);
  const cpu::RunResult r = machine.run();
  EXPECT_GE(r.instructions, 2000u);
  EXPECT_GT(r.ipc, 0.0);
  EXPECT_GT(r.fetch_sources.count(FetchSource::PreBuffer), 0u);
  // Identical import + config => identical simulation.
  cpu::Cpu again(cfg);
  EXPECT_EQ(again.run().cycles, r.cycles);
}

// --- determinism layer ------------------------------------------------------

TEST(Determinism, RunParallelMatchesSerialForAnyWorkerCount) {
  // The campaign engine, for any worker count, hands back in grid order
  // exactly what a serial loop of hand-built machines computes.
  const std::vector<std::string> benchmarks = {"gzip", "eon", "mcf",
                                               "crafty", "vortex"};
  std::vector<cpu::RunResult> serial;
  for (const std::string& b : benchmarks) {
    cpu::MachineConfig cfg =
        sim::make_config("clgp-l0", cacti::TechNode::um045, 2048);
    cfg.benchmark = b;
    cfg.max_instructions = 4000;
    cpu::Cpu machine(cfg);
    serial.push_back(machine.run());
  }
  campaign::CampaignSpec spec;
  spec.presets = {"clgp-l0"};
  spec.nodes = {cacti::TechNode::um045};
  spec.l1_sizes = {2048};
  spec.benchmarks = benchmarks;
  spec.instructions = 4000;
  const std::vector<campaign::RunPoint> points = campaign::expand(spec);
  for (const unsigned workers : {1U, 2U, 7U}) {
    const auto parallel = campaign::run_points(points, workers);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      expect_same_stats(parallel[i].result, serial[i]);
    }
  }
}

TEST(Determinism, RecordThenReplayReproducesTheRunExactly) {
  // Acceptance: `trace record` on a synthetic benchmark followed by
  // `trace replay` of the produced file yields identical IPC and
  // fetch-source statistics. Recorded the way `trace record` does it:
  // the records the run's oracle read, re-walked to a stream end.
  const std::string path = test_file("eon.pstr");
  cpu::MachineConfig cfg = sim::make_config("clgp-l0-pb16",
                                            cacti::TechNode::um045, 4096);
  cfg.benchmark = "eon";
  cfg.max_instructions = 5000;

  cpu::Cpu rec_machine(cfg);
  const cpu::RunResult recorded = rec_machine.run();
  TraceHeader header;
  header.benchmark = "eon";
  header.program_seed = cfg.seed;
  header.trace_seed = cfg.seed + 17;
  TraceGenerator walk(rec_machine.program(), header.trace_seed);
  const std::vector<DynInst> records =
      read_streams(walk, rec_machine.trace_records_read());
  EXPECT_GT(records.size(), cfg.max_instructions);
  write_trace_file(path, header, records);

  cfg.workload = load_replay_spec(path);
  cpu::Cpu replay_machine(cfg);
  const cpu::RunResult replayed = replay_machine.run();
  expect_same_stats(recorded, replayed);
  EXPECT_EQ(replay_machine.trace_records_read(),
            rec_machine.trace_records_read());

  // And the recording itself matches the plain (unrecorded) run.
  cfg.workload = nullptr;
  cpu::Cpu plain(cfg);
  expect_same_stats(recorded, plain.run());
}

}  // namespace
}  // namespace prestage::workload
