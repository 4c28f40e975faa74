// Hostile-input tests for the shared byte codec (common/bytes.hpp) and
// the three binary readers built on it: PSTR traces, PSCK sampling plans
// and raw ChampSim records. Every truncation and every lying count or
// length must fail with a typed SimError, and no allocation may be sized
// from a lie: this binary replaces global operator new to record the
// largest single request, and each case bounds it.
//
// The replacement operators are malloc/free-backed; GCC's
// -Wmismatched-new-delete pairs an inlined `new T` with the free()
// inside the replaced delete and misfires at -O1 (the sanitizer
// presets). The replacement is globally consistent, so silence the
// false positive for this binary.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "sample/checkpoint.hpp"
#include "workload/champsim.hpp"
#include "workload/trace_file.hpp"

// --- largest-allocation hook -------------------------------------------------

namespace {
std::atomic<std::size_t> g_largest_allocation{0};

void note_allocation(std::size_t size) {
  if (size > g_largest_allocation.load(std::memory_order_relaxed)) {
    g_largest_allocation.store(size, std::memory_order_relaxed);
  }
}
}  // namespace

void* operator new(std::size_t size) {
  note_allocation(size);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  note_allocation(size);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace prestage {
namespace {

using Bytes = std::vector<std::uint8_t>;

/// Larger than any reader needs for the small inputs below (the PSTR
/// reader's 4096-record buffer is the largest); a count or length a
/// lie could make a reader trust asks for gigabytes.
constexpr std::size_t kAllocationBound = 1U << 20U;

std::string test_file(const std::string& name) {
  const auto* info = testing::UnitTest::GetInstance()->current_test_info();
  return testing::TempDir() + "/" + info->test_suite_name() + "." +
         info->name() + "." + name;
}

Bytes read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  return Bytes(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path, const Bytes& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
}

Bytes with_le(Bytes bytes, std::size_t at, std::uint64_t v, int width) {
  for (int i = 0; i < width; ++i) {
    bytes[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
  }
  return bytes;
}

TEST(ByteCodec, RoundTripsEveryFieldAndPrefixesErrorsWithItsContext) {
  Bytes bytes;
  ByteWriter w(bytes);
  w.u8(0xab);
  w.u32(0x01020304U);
  w.u64(0x1122334455667788ULL);
  w.f64(-2.5);
  w.str("eon");
  w.chars("PS");
  ASSERT_EQ(bytes.size(), 1u + 4 + 8 + 8 + 4 + 3 + 2);
  EXPECT_EQ(bytes[1], 0x04);  // little-endian, whatever the host
  EXPECT_EQ(bytes[5], 0x88);

  ByteReader r(bytes.data(), bytes.size(), "ctx");
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0x01020304U);
  EXPECT_EQ(r.u64(), 0x1122334455667788ULL);
  EXPECT_EQ(r.f64(), -2.5);
  EXPECT_EQ(r.str(), "eon");
  EXPECT_EQ(r.chars(2), "PS");
  EXPECT_TRUE(r.exhausted());
  try {
    (void)r.u8();
    FAIL() << "read past the end";
  } catch (const SimError& e) {
    EXPECT_STREQ(e.what(), "ctx: truncated");
  }

  // A count is refused when its items cannot fit in the bytes left.
  Bytes counted;
  ByteWriter cw(counted);
  cw.u32(2);
  cw.u64(7);
  cw.u64(9);
  EXPECT_EQ(ByteReader(counted.data(), counted.size(), "ctx").count(8), 2u);
  const Bytes lying = with_le(counted, 0, 3, 4);
  try {
    (void)ByteReader(lying.data(), lying.size(), "ctx").count(8);
    FAIL() << "a count of 3 x 8 bytes in 16 bytes was accepted";
  } catch (const SimError& e) {
    EXPECT_STREQ(e.what(), "ctx: count 3 exceeds the bytes left");
  }
}

enum class Format { Pstr, Psck, ChampSim };

struct HostileCase {
  Format format;
  std::string what;
  Bytes bytes;
};

/// Parses @p bytes as @p format through its public reader; the file
/// readers get them through @p path.
void parse(Format format, const Bytes& bytes, const std::string& path) {
  switch (format) {
    case Format::Pstr:
      (void)workload::read_trace_file(path);
      return;
    case Format::Psck:
      (void)sample::deserialize_checkpoint(bytes.data(), bytes.size());
      return;
    case Format::ChampSim:
      (void)workload::import_champsim_trace(path);
      return;
  }
}

Bytes pstr_bytes() {
  std::vector<workload::DynInst> records;
  for (std::uint64_t i = 0; i < 5; ++i) {
    workload::DynInst d;
    d.pc = 0x10000 + i * kInstrBytes;
    d.op = i == 4 ? OpClass::Jump : OpClass::IntAlu;
    d.dst = static_cast<RegId>(i);
    d.taken = d.ends_stream = i == 4;
    d.next_pc = d.taken ? 0x10000 : d.pc + kInstrBytes;
    records.push_back(d);
  }
  workload::TraceHeader header;
  header.benchmark = "eon";
  const std::string path = test_file("source.pstr");
  workload::write_trace_file(path, header, records);
  return read_bytes(path);
}

sample::SamplePlan small_plan() {
  sample::SamplePlan plan;
  plan.workload = "eon";
  plan.seed = 1;
  plan.total_instructions = 30000;
  plan.params.interval_instructions = 5000;
  plan.params.dim = 16;
  plan.params.max_clusters = 4;
  plan.params.warm_lines = 4;
  plan.params.warmup_intervals = 1;
  plan.intervals = 6;
  plan.unique_blocks = 50;
  plan.clusters = 2;
  for (std::uint32_t i = 0; i < 3; ++i) {
    sample::Slice s;
    s.start = 5000 * (2 * i + 1);
    s.instructions = 5000;
    s.interval_index = 2 * i + 1;
    s.cluster = i % 2;
    s.weight = i == 2 ? 0.5 : 0.25;
    s.warm_start = s.start - 5000;
    s.warm_lines = {0x1000 + 64 * i, 0x2000 + 64 * i};
    plan.slices.push_back(std::move(s));
  }
  return plan;
}

// Every input below must throw SimError without an allocation above
// kAllocationBound: each header prefix, a stride of cut points through
// each body, the ChampSim fixture cut mid-record, and each count or
// length field set to 0xffffffff (0xff for PSTR's u8 name length) and to
// one item past the bytes left.
TEST(HostileInput, TruncationsAndLyingCountsThrowTypedWithoutLargeAllocations) {
  std::vector<HostileCase> cases;
  const auto cuts = [&cases](Format f, const std::string& name,
                             const Bytes& bytes, std::size_t from,
                             std::size_t to, std::size_t stride) {
    for (std::size_t n = from; n <= to && n < bytes.size(); n += stride) {
      cases.push_back({f, name + " cut at byte " + std::to_string(n),
                       Bytes(bytes.begin(),
                             bytes.begin() + static_cast<std::ptrdiff_t>(n))});
    }
  };
  const auto lies = [&cases](Format f, const std::string& name,
                             const Bytes& bytes, std::size_t at, int width,
                             std::uint64_t max, std::size_t item_bytes) {
    const std::size_t left =
        bytes.size() - at - static_cast<std::size_t>(width);
    for (const std::uint64_t lie : {max, left / item_bytes + 1}) {
      cases.push_back({f, name + " = " + std::to_string(lie),
                       with_le(bytes, at, lie, width)});
    }
  };

  // PSTR: magic, version, u64 record count @8, two seeds, u8 name length
  // @32, the name, then 29-byte records.
  const Bytes pstr = pstr_bytes();
  const std::size_t pstr_header = 33 + 3;
  cuts(Format::Pstr, "PSTR", pstr, 0, pstr_header, 1);
  cuts(Format::Pstr, "PSTR", pstr, pstr_header + 1, pstr.size(), 7);
  lies(Format::Pstr, "PSTR record count", pstr, 8, 8, 0xffffffffU, 29);
  lies(Format::Pstr, "PSTR name length", pstr, 32, 1, 0xffU, 1);

  // PSCK: u32 name length @48, the name, three u64/u32 fields, the u32
  // slice count, 48-byte slices each ending in a u32 warm-line count and
  // its lines, then the u32 state count.
  const sample::SamplePlan plan = small_plan();
  const Bytes psck = sample::serialize_checkpoint(plan);
  const std::size_t slice_count_at = 52 + plan.workload.size() + 8 + 8 + 4;
  cuts(Format::Psck, "PSCK", psck, 0, slice_count_at + 4, 1);
  cuts(Format::Psck, "PSCK", psck, slice_count_at + 5, psck.size(), 5);
  lies(Format::Psck, "PSCK name length", psck, 48, 4, 0xffffffffU, 1);
  lies(Format::Psck, "PSCK slice count", psck, slice_count_at, 4,
       0xffffffffU, 48);
  std::size_t slice_at = slice_count_at + 4;
  for (const sample::Slice& s : plan.slices) {
    lies(Format::Psck, "PSCK warm-line count @" + std::to_string(slice_at + 44),
         psck, slice_at + 44, 4, 0xffffffffU, 8);
    slice_at += 48 + 8 * s.warm_lines.size();
  }
  ASSERT_EQ(slice_at + 4, psck.size());
  lies(Format::Psck, "PSCK state count", psck, slice_at, 4, 0xffffffffU, 8);

  // ChampSim: 64-byte records, cut inside the first, a middle and the
  // last one.
  const Bytes champsim =
      read_bytes(PRESTAGE_TEST_DATA_DIR "/fixture.champsim.trace");
  ASSERT_EQ(champsim.size() % 64, 0u);
  for (const std::size_t record : {std::size_t{0}, champsim.size() / 128,
                                   champsim.size() / 64 - 1}) {
    for (const std::size_t into : {1, 32, 63}) {
      cases.push_back({Format::ChampSim,
                       "ChampSim cut " + std::to_string(into) +
                           " bytes into record " + std::to_string(record),
                       Bytes(champsim.begin(),
                             champsim.begin() + static_cast<std::ptrdiff_t>(
                                                    record * 64 + into))});
    }
  }

  const std::string path = test_file("hostile.bin");
  // The intact inputs parse: each case breaks a valid file.
  for (const auto& [format, bytes] :
       {std::pair{Format::Pstr, pstr}, std::pair{Format::Psck, psck},
        std::pair{Format::ChampSim, champsim}}) {
    write_bytes(path, bytes);
    EXPECT_NO_THROW(parse(format, bytes, path));
  }
  ASSERT_GT(cases.size(), 150u);
  for (const HostileCase& c : cases) {
    write_bytes(path, c.bytes);
    g_largest_allocation.store(0, std::memory_order_relaxed);
    EXPECT_THROW(parse(c.format, c.bytes, path), SimError) << c.what;
    EXPECT_LE(g_largest_allocation.load(std::memory_order_relaxed),
              kAllocationBound)
        << c.what;
  }
}

}  // namespace
}  // namespace prestage
