#include "sample/checkpoint.hpp"

#include <cstdio>
#include <string>

#include "common/bytes.hpp"
#include "common/faultpoint.hpp"
#include "common/prestage_assert.hpp"

namespace prestage::sample {

namespace {

constexpr char kMagic[4] = {'P', 'S', 'C', 'K'};

/// Smallest encodings of the counted items: a slice with no warm lines,
/// and one warm line.
constexpr std::size_t kMinSliceBytes = 3 * 8 + 4 + 8 + 8 + 4;
constexpr std::size_t kWarmLineBytes = 8;

}  // namespace

std::vector<std::uint8_t> serialize_checkpoint(const SamplePlan& plan) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.chars({kMagic, 4});
  w.u32(kCheckpointVersion);
  w.u64(plan.seed);
  w.u64(plan.total_instructions);
  w.u64(plan.params.interval_instructions);
  w.u32(plan.params.dim);
  w.u32(plan.params.max_clusters);
  w.u32(plan.params.warm_lines);
  w.u32(plan.params.warmup_intervals);
  w.str(plan.workload);
  w.u64(plan.intervals);
  w.u64(plan.unique_blocks);
  w.u32(plan.clusters);
  w.u32(static_cast<std::uint32_t>(plan.slices.size()));
  for (const Slice& s : plan.slices) {
    w.u64(s.start);
    w.u64(s.instructions);
    w.u64(s.interval_index);
    w.u32(s.cluster);
    w.f64(s.weight);
    w.u64(s.warm_start);
    w.u32(static_cast<std::uint32_t>(s.warm_lines.size()));
    for (const Addr line : s.warm_lines) w.u64(line);
  }
  w.u32(0);  // machine-state count: always 0
  return out;
}

SamplePlan deserialize_checkpoint(const std::uint8_t* data,
                                  std::size_t size) {
  ByteReader r(data, size, "PSCK checkpoint");
  if (r.chars(4) != std::string_view(kMagic, 4)) r.fail("bad magic");
  const std::uint32_t version = r.u32();
  if (version != kCheckpointVersion) {
    r.fail("unsupported version " + std::to_string(version));
  }
  SamplePlan plan;
  plan.params.enabled = true;
  plan.seed = r.u64();
  plan.total_instructions = r.u64();
  plan.params.interval_instructions = r.u64();
  plan.params.dim = r.u32();
  plan.params.max_clusters = r.u32();
  plan.params.warm_lines = r.u32();
  plan.params.warmup_intervals = r.u32();
  plan.workload = r.str();
  plan.intervals = r.u64();
  plan.unique_blocks = r.u64();
  plan.clusters = r.u32();
  const std::uint32_t slice_count = r.count(kMinSliceBytes);
  plan.slices.reserve(slice_count);
  for (std::uint32_t i = 0; i < slice_count; ++i) {
    Slice s;
    s.start = r.u64();
    s.instructions = r.u64();
    s.interval_index = r.u64();
    s.cluster = r.u32();
    s.weight = r.f64();
    s.warm_start = r.u64();
    const std::uint32_t warm = r.count(kWarmLineBytes);
    s.warm_lines.reserve(warm);
    for (std::uint32_t w = 0; w < warm; ++w) s.warm_lines.push_back(r.u64());
    plan.slices.push_back(std::move(s));
  }
  if (const std::uint32_t states = r.u32(); states != 0) {
    r.fail("unsupported machine-state count " + std::to_string(states) +
           " (PSCK v1 plans carry none)");
  }
  if (!r.exhausted()) r.fail("trailing bytes");
  return plan;
}

void write_checkpoint_file(const std::string& path, const SamplePlan& plan) {
  faults::check(faults::Site::PsckWrite, path);
  const std::vector<std::uint8_t> bytes = serialize_checkpoint(plan);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    throw SimError("cannot open checkpoint file for writing: " + path);
  }
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != bytes.size() || !closed) {
    throw SimError("short write to checkpoint file: " + path);
  }
}

SamplePlan read_checkpoint_file(const std::string& path) {
  faults::check(faults::Site::PsckRead, path);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw SimError("cannot open checkpoint file: " + path);
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + got);
  }
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) throw SimError("read error on checkpoint file: " + path);
  return deserialize_checkpoint(bytes.data(), bytes.size());
}

}  // namespace prestage::sample
