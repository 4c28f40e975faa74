// Host-optimization equivalence tests: the event-horizon cycle skip and
// the batched trace decode are pure host-speed changes, so this file
// pins their *identity* properties rather than any simulated numbers.
//
//  - Cycle skip: every preset the golden pins cover must produce a
//    byte-identical RunResult with skipping force-enabled and
//    force-disabled (same suite shape the pins use), and the enabled run
//    must actually skip cycles — otherwise the fast path is dead code
//    and the A/B proves nothing.
//  - Batched decode: TraceSource::fill() must hand out the exact record
//    stream next_stream() produces, for every source family (the
//    generator's native walk, the replay source's native copy incl.
//    wrap-around, and the sliced source's forwarding path), across
//    adversarial batch sizes that straddle stream boundaries.
//  - Trace snapshots: a source cloned at a stream-aligned position must
//    continue exactly like a fresh source walked there (records and
//    call stack), for the generator and across the replay wrap seam —
//    the identity that lets sampled slices start from plan snapshots.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/prestage_assert.hpp"
#include "cpu/cpu.hpp"
#include "sample/sliced_source.hpp"
#include "sim/presets.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"
#include "workload/trace.hpp"
#include "workload/trace_file.hpp"

namespace prestage::sim {
namespace {

// Same shape as the golden pins (tests/golden_test.cpp): three
// benchmarks at a small fixed budget, L1 = 4 KiB, 45 nm.
constexpr std::uint64_t kInstrs = 6000;
const std::vector<std::string> kBenchmarks = {"eon", "gzip", "mcf"};

/// Asserts every simulated statistic of two runs is identical. Doubles
/// are compared exactly: the skip folds the same arithmetic over the
/// same state, so even the last bit may not move. Host telemetry
/// (host_seconds, minstr_per_sec, cycles_skipped) is exempt by design.
void expect_identical(const cpu::RunResult& a, const cpu::RunResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.instructions, b.instructions) << what;
  EXPECT_EQ(a.cycles, b.cycles) << what;
  EXPECT_EQ(a.ipc, b.ipc) << what;
  for (int i = 0; i < kNumFetchSources; ++i) {
    const auto s = static_cast<FetchSource>(i);
    EXPECT_EQ(a.fetch_sources.count(s), b.fetch_sources.count(s))
        << what << " fetch source " << i;
    EXPECT_EQ(a.prefetch_sources.count(s), b.prefetch_sources.count(s))
        << what << " prefetch source " << i;
  }
  EXPECT_EQ(a.lines_fetched, b.lines_fetched) << what;
  EXPECT_EQ(a.recoveries, b.recoveries) << what;
  EXPECT_EQ(a.blocks_predicted, b.blocks_predicted) << what;
  EXPECT_EQ(a.mispredicts_per_kilo_instr, b.mispredicts_per_kilo_instr)
      << what;
  EXPECT_EQ(a.l2_hits, b.l2_hits) << what;
  EXPECT_EQ(a.l2_misses, b.l2_misses) << what;
  EXPECT_EQ(a.dcache_misses, b.dcache_misses) << what;
  EXPECT_EQ(a.prefetches_issued, b.prefetches_issued) << what;
}

/// One benchmark of the golden suite on @p preset, skip on or off.
cpu::RunResult run_point(const std::string& preset,
                         const std::string& benchmark, bool cycle_skip) {
  cpu::MachineConfig cfg =
      make_config(preset, cacti::TechNode::um045, 4096);
  cfg.benchmark = benchmark;
  cfg.max_instructions = kInstrs;
  cfg.enable_cycle_skip = cycle_skip;
  cpu::Cpu machine(cfg);
  return machine.run();
}

TEST(CycleSkipEquivalence, EveryPresetIsTimingIdenticalWithSkipOff) {
  for (const std::string& preset : all_presets()) {
    Cycle skipped = 0;
    for (const std::string& bench : kBenchmarks) {
      const cpu::RunResult skip = run_point(preset, bench, true);
      const cpu::RunResult scalar = run_point(preset, bench, false);
      expect_identical(skip, scalar, preset + "/" + bench);
      EXPECT_EQ(scalar.cycles_skipped, 0u)
          << preset << ": skip-disabled run reported skipped cycles";
      skipped += skip.cycles_skipped;
    }
    // The enabled run must exercise the fast path, or the A/B is vacuous.
    EXPECT_GT(skipped, 0u) << preset;
  }
}

// --- batched decode identity ------------------------------------------------

using workload::DynInst;
using workload::StreamChunk;
using workload::TraceSource;

/// Flattens @p n records out of the scalar next_stream() interface.
std::vector<DynInst> scalar_records(TraceSource& src, std::size_t n) {
  std::vector<DynInst> out;
  while (out.size() < n) {
    const StreamChunk chunk = src.next_stream();
    out.insert(out.end(), chunk.insts.begin(), chunk.insts.end());
  }
  out.resize(n);
  return out;
}

/// Pulls @p n records through fill() in growing odd-sized batches
/// (1, 3, 7, 15, ...) so batch edges land inside, at, and across stream
/// boundaries rather than conveniently aligning with them.
std::vector<DynInst> batched_records(TraceSource& src, std::size_t n) {
  std::vector<DynInst> out(n);
  std::size_t pos = 0;
  std::size_t batch = 1;
  while (pos < n) {
    const std::size_t want = std::min(batch, n - pos);
    const std::size_t got = src.fill(out.data() + pos, want);
    EXPECT_EQ(got, want) << "fill() short-changed an infinite source";
    pos += got;
    batch = batch * 2 + 1;
  }
  return out;
}

void expect_same_records(const std::vector<DynInst>& a,
                         const std::vector<DynInst>& b,
                         const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const DynInst& x = a[i];
    const DynInst& y = b[i];
    const std::string at = what + " record " + std::to_string(i);
    ASSERT_EQ(x.pc, y.pc) << at;
    ASSERT_EQ(x.op, y.op) << at;
    ASSERT_EQ(x.dst, y.dst) << at;
    ASSERT_EQ(x.src1, y.src1) << at;
    ASSERT_EQ(x.src2, y.src2) << at;
    ASSERT_EQ(x.data_addr, y.data_addr) << at;
    ASSERT_EQ(x.next_pc, y.next_pc) << at;
    ASSERT_EQ(x.taken, y.taken) << at;
    ASSERT_EQ(x.ends_stream, y.ends_stream) << at;
    ASSERT_EQ(x.seq, y.seq) << at;
  }
}

TEST(BatchedDecode, GeneratorFillMatchesNextStream) {
  for (const char* bench : {"eon", "gzip", "mcf"}) {
    const workload::Program prog =
        workload::generate_program(workload::profile_for(bench), 7);
    workload::TraceGenerator scalar(prog, 42);
    workload::TraceGenerator batched(prog, 42);
    constexpr std::size_t kRecords = 20000;  // spans many region switches
    expect_same_records(scalar_records(scalar, kRecords),
                        batched_records(batched, kRecords), bench);
    // The flat view stops exactly at kRecords; the scalar one ran to
    // the end of its last chunk, so only >= holds there (and the live
    // call stacks may differ by that overshoot).
    EXPECT_GE(scalar.instructions(), kRecords) << bench;
    EXPECT_EQ(batched.instructions(), kRecords) << bench;
  }
}

TEST(BatchedDecode, ReplayFillMatchesNextStreamAcrossWrap) {
  const workload::Program prog =
      workload::generate_program(workload::profile_for("gcc"), 11);
  std::vector<DynInst> recorded;
  {
    workload::RecordingTraceSource recorder(prog, 42, &recorded);
    for (int i = 0; i < 60; ++i) (void)recorder.next_stream();
  }
  const auto image =
      std::make_shared<const std::vector<DynInst>>(recorded);
  workload::ReplayTraceSource scalar(image);
  workload::ReplayTraceSource batched(image);
  // Three laps: the identity must hold across the wrap seam, where the
  // replay source renumbers seq and re-anchors the stream walk.
  const std::size_t n = recorded.size() * 3 + recorded.size() / 2;
  expect_same_records(scalar_records(scalar, n),
                      batched_records(batched, n), "replay");
  EXPECT_EQ(batched.wraps(), 3u);
}

/// Walks @p src through fill() to the first stream boundary at or past
/// @p at instructions; returns the position (a valid slice start).
std::uint64_t walk_to_stream_start(TraceSource& src, std::uint64_t at) {
  DynInst d;
  do {
    (void)src.fill(&d, 1);
  } while (src.instructions() < at || !d.ends_stream);
  return src.instructions();
}

TEST(BatchedDecode, SlicedSourceFillMatchesNextStream) {
  const workload::Program prog =
      workload::generate_program(workload::profile_for("eon"), 5);
  workload::TraceGenerator walker(prog, 42);
  (void)walk_to_stream_start(walker, 300);
  sample::SlicedTraceSource scalar(walker.clone());
  sample::SlicedTraceSource batched(walker.clone());
  const std::vector<DynInst> a = scalar_records(scalar, 5000);
  expect_same_records(a, batched_records(batched, 5000), "sliced");
  EXPECT_EQ(a.front().seq, 0u) << "a slice renumbers from seq 0";
  EXPECT_EQ(batched.instructions(), 5000u);
}

/// Snapshot identity: @p clone and @p fresh stand at the same stream
/// boundary; both must report the same live call stack there and
/// continue with the same records (each drained its own way).
void expect_same_continuation(TraceSource& clone, TraceSource& fresh,
                              const std::string& what) {
  EXPECT_EQ(clone.call_stack_pcs(64), fresh.call_stack_pcs(64)) << what;
  expect_same_records(batched_records(clone, 20000),
                      scalar_records(fresh, 20000), what);
}

TEST(TraceSnapshot, GeneratorCloneContinuesLikeAFreshWalk) {
  for (const char* bench : {"eon", "gcc", "mcf"}) {
    const workload::Program prog =
        workload::generate_program(workload::profile_for(bench), 3);
    workload::TraceGenerator walker(prog, 42);
    const std::uint64_t start = walk_to_stream_start(walker, 30000);
    const std::unique_ptr<TraceSource> clone = walker.clone();

    // The old slice start: a fresh source walked stream by stream.
    workload::TraceGenerator fresh(prog, 42);
    while (fresh.instructions() < start) (void)fresh.next_stream();
    ASSERT_EQ(fresh.instructions(), start) << bench;
    ASSERT_EQ(clone->instructions(), start) << bench;
    expect_same_continuation(*clone, fresh, bench);

    // The clone is independent: draining it left the original in place.
    ASSERT_EQ(walker.instructions(), start) << bench;
    workload::TraceGenerator again(prog, 42);
    while (again.instructions() < start) (void)again.next_stream();
    expect_same_continuation(walker, again, std::string(bench) + " orig");
  }
}

TEST(TraceSnapshot, ReplayCloneContinuesLikeAFreshWalkAcrossWrap) {
  const workload::Program prog =
      workload::generate_program(workload::profile_for("gcc"), 11);
  std::vector<DynInst> recorded;
  {
    workload::RecordingTraceSource recorder(prog, 42, &recorded);
    for (int i = 0; i < 60; ++i) (void)recorder.next_stream();
  }
  const auto image =
      std::make_shared<const std::vector<DynInst>>(recorded);
  // One snapshot just before the seam, one a lap later (taken after a
  // wrap); either continuation then crosses the seam dozens of times.
  for (const std::uint64_t at : {static_cast<std::uint64_t>(
                                     recorded.size() - 20),
                                 static_cast<std::uint64_t>(
                                     recorded.size() + 40)}) {
    workload::ReplayTraceSource walker(image);
    const std::uint64_t start = walk_to_stream_start(walker, at);
    const std::unique_ptr<TraceSource> clone = walker.clone();
    workload::ReplayTraceSource fresh(image);
    while (fresh.instructions() < start) (void)fresh.next_stream();
    const std::string what = "replay @" + std::to_string(start);
    ASSERT_EQ(fresh.instructions(), start) << what;
    ASSERT_EQ(clone->instructions(), start) << what;
    expect_same_continuation(*clone, fresh, what);
  }
}

TEST(TraceSnapshot, RecordingTeeRejectsClone) {
  const workload::Program prog =
      workload::generate_program(workload::profile_for("eon"), 5);
  std::vector<DynInst> recorded;
  workload::RecordingTraceSource recorder(prog, 42, &recorded);
  EXPECT_THROW((void)recorder.clone(), SimError);
}

}  // namespace
}  // namespace prestage::sim
