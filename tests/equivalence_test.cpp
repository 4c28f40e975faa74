// Host-optimization equivalence tests: the event-horizon cycle skip and
// the batched trace decode are pure host-speed changes, so this file
// pins their *identity* properties rather than any simulated numbers.
//
//  - Cycle skip: every preset the golden pins cover must produce a
//    byte-identical RunResult with skipping force-enabled and
//    force-disabled (same suite shape the pins use), and the enabled run
//    must skip exactly its pinned number of cycles — a skip that stops
//    firing is a host-speed regression no timing identity can show.
//  - Batched decode: TraceSource::fill() must hand out the same records
//    whatever its batch sizes, for every source family, across
//    adversarial batch sizes that straddle stream boundaries: the
//    generator's native walk against one-record reads, the replay
//    source against its recorded vector lap after lap (renumbered,
//    across the wrap seam), and the sliced source against its inner
//    source renumbered from 0. The generator's records are also pinned
//    to digests taken before its block-granular walk core existed.
//  - Trace snapshots: a source cloned at a stream-aligned position must
//    continue exactly like a fresh source walked there (records and
//    call stack), for the generator and across the replay wrap seam —
//    the identity that lets sampled slices start from plan snapshots.
//  - Span walks: TraceSource::fill_spans() concatenates to the fill()
//    records, stops exactly at its instruction bound (mid-block,
//    mid-stream), and a clone taken there continues like a fill() walk;
//    for the generator's native walk and the fill()-derived default
//    (replay across its wrap seam, a sliced source, the ChampSim
//    fixture).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/prestage_assert.hpp"
#include "cpu/cpu.hpp"
#include "expect_same_records.hpp"
#include "expect_same_stats.hpp"
#include "sample/sliced_source.hpp"
#include "sim/presets.hpp"
#include "workload/champsim.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"
#include "workload/synthetic_spec.hpp"
#include "workload/trace.hpp"
#include "workload/trace_file.hpp"

namespace prestage::sim {
namespace {

// Same shape as the golden pins (tests/golden_test.cpp): three
// benchmarks at a small fixed budget, L1 = 4 KiB, 45 nm.
constexpr std::uint64_t kInstrs = 6000;
const std::vector<std::string> kBenchmarks = {"eon", "gzip", "mcf"};

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
  // cycles_skipped summed over kBenchmarks, generated before the
  // wall-clock perf gate was retired (identical in Release, Debug and
  // ASan builds). The enabled run must exercise the fast path, or the
  // A/B is vacuous; a horizon that turns conservative still passes the
  // identity check but skips fewer cycles, and fails here exactly.
  struct Pin {
    const char* preset;
    Cycle skipped;
  };
  const Pin pins[] = {
      {"base", 31705},           {"base-ideal", 33853},
      {"base-l0", 33087},        {"base-pipelined", 33766},
      {"fdp", 27775},            {"fdp-l0", 30264},
      {"fdp-l0-pb16", 29407},    {"clgp", 30102},
      {"clgp-l0", 30104},        {"clgp-l0-pb16", 29626},
      {"next-line", 29619},      {"next-line-l0", 31078},
      {"stream", 32302},         {"stream-l0", 33374},
      {"mana", 31650},           {"mana-l0", 33231},
      {"program-map", 32147},    {"program-map-l0", 33325},
  };
  ASSERT_EQ(std::size(pins), all_presets().size());
  for (std::size_t i = 0; i < std::size(pins); ++i) {
    const std::string& preset = all_presets()[i];
    ASSERT_EQ(preset, pins[i].preset);
    Cycle skipped = 0;
    for (const std::string& bench : kBenchmarks) {
      const cpu::RunResult skip = run_point(preset, bench, true);
      const cpu::RunResult scalar = run_point(preset, bench, false);
      expect_same_stats(skip, scalar, preset + "/" + bench);
      EXPECT_EQ(scalar.cycles_skipped, 0u)
          << preset << ": skip-disabled run reported skipped cycles";
      skipped += skip.cycles_skipped;
    }
    EXPECT_EQ(skipped, pins[i].skipped) << preset;
  }
}

// --- batched decode identity ------------------------------------------------

using workload::DynInst;
using workload::TraceSource;

/// Pulls @p n records through one-record fill() calls.
std::vector<DynInst> single_records(TraceSource& src, std::size_t n) {
  std::vector<DynInst> out(n);
  for (DynInst& d : out) EXPECT_EQ(src.fill(&d, 1), 1U);
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

TEST(BatchedDecode, GeneratorFillMatchesSingleRecordReads) {
  for (const char* bench : {"eon", "gzip", "mcf"}) {
    const workload::Program prog =
        workload::generate_program(workload::profile_for(bench), 7);
    workload::TraceGenerator single(prog, 42);
    workload::TraceGenerator batched(prog, 42);
    constexpr std::size_t kRecords = 20000;  // spans many region switches
    expect_same_records(single_records(single, kRecords),
                        batched_records(batched, kRecords), bench);
    // Both stop exactly at kRecords, mid-stream or not, with the same
    // live call stack.
    EXPECT_EQ(single.instructions(), kRecords) << bench;
    EXPECT_EQ(batched.instructions(), kRecords) << bench;
    EXPECT_EQ(single.call_stack_pcs(64), batched.call_stack_pcs(64))
        << bench;
  }
}

/// FNV-1a over the eight little-endian bytes of @p v.
void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffU;
    h *= 0x100000001b3ULL;
  }
}
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

void fnv_record(std::uint64_t& h, const DynInst& d) {
  fnv_mix(h, d.pc);
  fnv_mix(h, static_cast<std::uint64_t>(d.op));
  fnv_mix(h, d.dst);
  fnv_mix(h, d.src1);
  fnv_mix(h, d.src2);
  fnv_mix(h, d.data_addr);
  fnv_mix(h, d.next_pc);
  fnv_mix(h, d.taken ? 1U : 0U);
  fnv_mix(h, d.ends_stream ? 1U : 0U);
  fnv_mix(h, d.seq);
}

constexpr std::size_t kPinRecords = 200000;

/// Digest of the first kPinRecords records, read in fill() batches of
/// @p batch; the source ends exactly at kPinRecords.
std::uint64_t digest_fill(TraceSource& src, std::size_t batch) {
  std::vector<DynInst> buf(batch);
  std::uint64_t h = kFnvOffset;
  for (std::size_t done = 0; done < kPinRecords;) {
    const std::size_t got =
        src.fill(buf.data(), std::min(batch, kPinRecords - done));
    for (std::size_t i = 0; i < got; ++i) fnv_record(h, buf[i]);
    done += got;
  }
  return h;
}

std::uint64_t digest_call_stack(const TraceSource& src) {
  const std::vector<Addr> pcs =
      src.call_stack_pcs(std::numeric_limits<std::size_t>::max());
  std::uint64_t h = kFnvOffset;
  fnv_mix(h, pcs.size());
  for (const Addr pc : pcs) fnv_mix(h, pc);
  return h;
}

TEST(BatchedDecode, WalkerRecordsMatchParentPin) {
  // Generated with the instruction-at-a-time walker that the block walk
  // replaced (program seed 1, trace seed 18 — the Cpu's oracle seed):
  // every DynInst field of the first 200k records, and the live call
  // stack after them. A changed literal means the synthetic trace, and
  // with it every golden number, moved.
  struct Pin {
    const char* bench;
    std::uint64_t records;
    std::uint64_t call_stack;
  };
  const Pin pins[] = {
      {"gzip", 0x629836ed11a9a16fULL, 0x2d8d2cb751295d78ULL},
      {"vpr", 0x56b2c6bc24e44eb0ULL, 0xd2b6388fbd2c62acULL},
      {"gcc", 0xfbe91e6820d99d41ULL, 0x6b5626bd9e7f7f7eULL},
      {"mcf", 0x87a7254267bab2a5ULL, 0xd641630921ae3a48ULL},
      {"crafty", 0xcfc6b544c5862addULL, 0xbbb4014bdbbe19b1ULL},
      {"parser", 0xa2c5e25abaee107aULL, 0x966b046897e3bb68ULL},
      {"eon", 0x23b36b8e2ba464adULL, 0x3d13761520c3281cULL},
      {"perlbmk", 0xadd2fbef8691f1a6ULL, 0x2f2854a42e4a3e75ULL},
      {"gap", 0x40b42dc29068f7ceULL, 0x64a4c76741e1b882ULL},
      {"vortex", 0x741cd00fb1afb347ULL, 0xa283f24312e674b2ULL},
      {"bzip2", 0x3879c56ebd7f8883ULL, 0x0aa1f469071fb0baULL},
      {"twolf", 0x8240589aa9d6fb10ULL, 0x03a0bc4481672044ULL},
  };
  ASSERT_EQ(std::size(pins), workload::benchmark_names().size());
  for (const Pin& pin : pins) {
    const auto spec = workload::synthetic_workload(pin.bench, 1);
    for (const std::size_t batch : {1U, 7U, 256U, 4096U}) {
      const std::unique_ptr<TraceSource> src = spec->make_source(18);
      EXPECT_EQ(digest_fill(*src, batch), pin.records)
          << pin.bench << " fill(" << batch << ")";
      EXPECT_EQ(digest_call_stack(*src), pin.call_stack)
          << pin.bench << " fill(" << batch << ")";
    }
  }
}

/// A recorded gcc walk of whole streams (~60 of them).
std::vector<DynInst> recorded_gcc(const workload::Program& prog) {
  workload::TraceGenerator recorder(prog, 42);
  return workload::read_streams(recorder, 600);
}

TEST(BatchedDecode, ReplayFillMatchesRecordedLapsAcrossWrap) {
  const workload::Program prog =
      workload::generate_program(workload::profile_for("gcc"), 11);
  const std::vector<DynInst> recorded = recorded_gcc(prog);
  // Three and a half laps: each lap is the recording again, with seq
  // counting on across the wrap seam.
  const std::size_t n = recorded.size() * 3 + recorded.size() / 2;
  std::vector<DynInst> laps(n);
  for (std::size_t i = 0; i < n; ++i) {
    laps[i] = recorded[i % recorded.size()];
    laps[i].seq = i;
  }
  workload::ReplayTraceSource batched(
      std::make_shared<const std::vector<DynInst>>(recorded));
  expect_same_records(laps, batched_records(batched, n), "replay");
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

TEST(BatchedDecode, SlicedSourceFillMatchesRenumberedInnerFill) {
  const workload::Program prog =
      workload::generate_program(workload::profile_for("eon"), 5);
  workload::TraceGenerator walker(prog, 42);
  (void)walk_to_stream_start(walker, 300);
  // The inner source's own records, renumbered from seq 0 as a slice
  // must deliver them.
  std::vector<DynInst> inner(5000);
  ASSERT_EQ(walker.clone()->fill(inner.data(), inner.size()), inner.size());
  for (std::size_t i = 0; i < inner.size(); ++i) inner[i].seq = i;
  sample::SlicedTraceSource batched(walker.clone());
  expect_same_records(inner, batched_records(batched, 5000), "sliced");
  EXPECT_EQ(batched.instructions(), 5000u);
}

/// Snapshot identity: @p clone and @p fresh stand at the same stream
/// boundary; both must report the same live call stack there and
/// continue with the same records (each drained its own way).
void expect_same_continuation(TraceSource& clone, TraceSource& fresh,
                              const std::string& what) {
  EXPECT_EQ(clone.call_stack_pcs(64), fresh.call_stack_pcs(64)) << what;
  expect_same_records(batched_records(clone, 20000),
                      single_records(fresh, 20000), what);
}

TEST(TraceSnapshot, GeneratorCloneContinuesLikeAFreshWalk) {
  for (const char* bench : {"eon", "gcc", "mcf"}) {
    const workload::Program prog =
        workload::generate_program(workload::profile_for(bench), 3);
    workload::TraceGenerator walker(prog, 42);
    const std::uint64_t start = walk_to_stream_start(walker, 30000);
    const std::unique_ptr<TraceSource> clone = walker.clone();

    // The old slice start: a fresh source walked there.
    workload::TraceGenerator fresh(prog, 42);
    (void)single_records(fresh, start);
    ASSERT_EQ(fresh.instructions(), start) << bench;
    ASSERT_EQ(clone->instructions(), start) << bench;
    expect_same_continuation(*clone, fresh, bench);

    // The clone is independent: draining it left the original in place.
    ASSERT_EQ(walker.instructions(), start) << bench;
    workload::TraceGenerator again(prog, 42);
    (void)single_records(again, start);
    expect_same_continuation(walker, again, std::string(bench) + " orig");
  }
}

TEST(TraceSnapshot, ReplayCloneContinuesLikeAFreshWalkAcrossWrap) {
  const workload::Program prog =
      workload::generate_program(workload::profile_for("gcc"), 11);
  const std::vector<DynInst> recorded = recorded_gcc(prog);
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
    (void)single_records(fresh, start);
    const std::string what = "replay @" + std::to_string(start);
    ASSERT_EQ(fresh.instructions(), start) << what;
    ASSERT_EQ(clone->instructions(), start) << what;
    expect_same_continuation(*clone, fresh, what);
  }
}

// --- span walks ------------------------------------------------------------

using workload::TraceSpan;
using SourceFactory = std::function<std::unique_ptr<TraceSource>()>;

/// Reads @p n records as spans, cycling span-array sizes and instruction
/// bounds so calls end mid-span, mid-stream and on span-array limits.
std::vector<TraceSpan> read_spans(TraceSource& src, std::uint64_t n) {
  const std::size_t span_sizes[] = {1, 2, 3, 7, 64};
  const std::uint64_t bounds[] = {5, 13, 1, 100, 4096};
  std::vector<TraceSpan> out;
  std::vector<TraceSpan> buf(64);
  std::uint64_t left = n;
  for (std::size_t call = 0; left > 0; ++call) {
    const std::size_t max_spans = span_sizes[call % std::size(span_sizes)];
    const std::uint64_t bound =
        std::min(left, bounds[call % std::size(bounds)]);
    const std::uint64_t before = src.instructions();
    const std::size_t got = src.fill_spans(buf.data(), max_spans, bound);
    EXPECT_GE(got, 1U);
    EXPECT_LE(got, max_spans);
    std::uint64_t covered = 0;
    for (std::size_t i = 0; i < got; ++i) {
      EXPECT_GE(buf[i].length, 1U);
      covered += buf[i].length;
    }
    EXPECT_LE(covered, bound);
    if (got < max_spans) {
      EXPECT_EQ(covered, bound) << "stopped short of its bound";
    }
    EXPECT_EQ(src.instructions() - before, covered)
        << "the source moved past its spans";
    out.insert(out.end(), buf.begin(), buf.begin() + got);
    left -= covered;
  }
  return out;
}

/// Spans concatenated equal @p records in pc and ends_stream.
void expect_spans_match(const std::vector<TraceSpan>& spans,
                        const std::vector<DynInst>& records,
                        const std::string& what) {
  std::size_t k = 0;
  for (const TraceSpan& span : spans) {
    for (std::uint32_t j = 0; j < span.length; ++j, ++k) {
      ASSERT_LT(k, records.size()) << what;
      const std::string at = what + " record " + std::to_string(k);
      ASSERT_EQ(records[k].pc, span.start + j * kInstrBytes) << at;
      ASSERT_EQ(records[k].ends_stream,
                span.ends_stream && j + 1 == span.length)
          << at;
    }
  }
  EXPECT_EQ(k, records.size()) << what;
}

/// First position at or after @p from that splits a stream inside one
/// block of @p prog: a bound that lands mid-block and mid-stream.
std::uint64_t mid_block_stop(const std::vector<DynInst>& records,
                             const workload::Program& prog,
                             std::uint64_t from) {
  for (std::uint64_t i = std::max<std::uint64_t>(from, 1);
       i < records.size(); ++i) {
    const DynInst& prev = records[i - 1];
    if (!prev.ends_stream && records[i].pc == prev.pc + kInstrBytes &&
        prog.block_at(prev.pc) == prog.block_at(records[i].pc)) {
      return i;
    }
  }
  ADD_FAILURE() << "no mid-block stop after " << from;
  return from;
}

/// The span contract on sources from @p make (each a fresh source in
/// the same state) over @p n records, with a bounded walk to the first
/// mid-block, mid-stream position at or after @p stop_from.
void expect_span_contract(const SourceFactory& make,
                          const workload::Program& prog, std::uint64_t n,
                          std::uint64_t stop_from, const std::string& what) {
  std::vector<DynInst> records(n);
  {
    const std::unique_ptr<TraceSource> src = make();
    ASSERT_EQ(src->fill(records.data(), n), n) << what;
  }
  {
    const std::unique_ptr<TraceSource> src = make();
    const std::uint64_t base = src->instructions();
    expect_spans_match(read_spans(*src, n), records, what + " spans");
    EXPECT_EQ(src->instructions() - base, n) << what;
  }

  // One bounded call with room to spare lands exactly on the bound.
  const std::uint64_t stop = mid_block_stop(records, prog, stop_from);
  const std::unique_ptr<TraceSource> walked = make();
  const std::uint64_t base = walked->instructions();
  std::vector<TraceSpan> spans(stop);
  const std::size_t got = walked->fill_spans(spans.data(), spans.size(), stop);
  spans.resize(got);
  ASSERT_EQ(walked->instructions() - base, stop) << what << " @" << stop;
  EXPECT_FALSE(spans.back().ends_stream) << what << " @" << stop;
  expect_spans_match(
      spans,
      std::vector<DynInst>(records.begin(),
                           records.begin() + static_cast<std::ptrdiff_t>(stop)),
      what + " bounded");

  // A clone taken mid-stream continues like a fill() walk to that point.
  const std::unique_ptr<TraceSource> clone = walked->clone();
  const std::unique_ptr<TraceSource> fresh = make();
  std::vector<DynInst> prefix(stop);
  (void)fresh->fill(prefix.data(), stop);
  EXPECT_EQ(clone->call_stack_pcs(64), fresh->call_stack_pcs(64)) << what;
  expect_same_records(batched_records(*clone, 5000),
                      batched_records(*fresh, 5000), what + " clone");
}

TEST(TraceSpans, GeneratorNativeWalkKeepsTheContract) {
  // Every benchmark's op mix: the mid-block stop and the clone catch a
  // span walk that draws data addresses other than a record walk does.
  for (const std::string_view bench : workload::benchmark_names()) {
    const workload::Program prog =
        workload::generate_program(workload::profile_for(bench), 3);
    expect_span_contract(
        [&] { return std::make_unique<workload::TraceGenerator>(prog, 42); },
        prog, 30000, 12345, std::string(bench));
  }
}

TEST(TraceSpans, ReplayDefaultWalkKeepsTheContractAcrossWrap) {
  const workload::Program prog =
      workload::generate_program(workload::profile_for("gcc"), 11);
  const std::vector<DynInst> recorded = recorded_gcc(prog);
  const auto image =
      std::make_shared<const std::vector<DynInst>>(recorded);
  // Three and a half laps; the bounded walk stops a lap in, past a seam.
  expect_span_contract(
      [&] { return std::make_unique<workload::ReplayTraceSource>(image); },
      prog, recorded.size() * 7 / 2, recorded.size() + 10, "replay");
}

TEST(TraceSpans, SlicedDefaultWalkKeepsTheContract) {
  const workload::Program prog =
      workload::generate_program(workload::profile_for("eon"), 5);
  workload::TraceGenerator walker(prog, 42);
  (void)walk_to_stream_start(walker, 300);
  expect_span_contract(
      [&] { return std::make_unique<sample::SlicedTraceSource>(walker.clone()); },
      prog, 20000, 777, "sliced");
}

TEST(TraceSpans, ChampSimFixtureDefaultWalkKeepsTheContract) {
  const auto spec = workload::import_champsim_trace(
      PRESTAGE_TEST_DATA_DIR "/fixture.champsim.trace");
  const std::uint64_t lap = spec->records().size();
  expect_span_contract([&] { return spec->make_source(0); },
                       spec->program(), lap * 5 / 2, lap + 3, "champsim");
}

}  // namespace
}  // namespace prestage::sim
