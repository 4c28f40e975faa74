#include "sample/checkpoint.hpp"

#include <cstdio>
#include <cstring>
#include <string>

#include "common/faultpoint.hpp"
#include "common/prestage_assert.hpp"

namespace prestage::sample {

namespace {

constexpr char kMagic[4] = {'P', 'S', 'C', 'K'};

/// Smallest encodings of the counted items: a slice with no warm lines,
/// one warm line, and a state with an empty scheme name and blob.
constexpr std::size_t kMinSliceBytes = 3 * 8 + 4 + 8 + 8 + 4;
constexpr std::size_t kWarmLineBytes = 8;
constexpr std::size_t kMinStateBytes = 4 + 4;

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(out, bits);
}

void put_str(std::vector<std::uint8_t>& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  // Byte loop rather than range-insert: GCC 12's -Wstringop-overflow
  // misfires on char-iterator vector inserts.
  for (const char c : s) out.push_back(static_cast<std::uint8_t>(c));
}

/// Bounds-checked little-endian reader over the input buffer.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  [[nodiscard]] std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  [[nodiscard]] std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  [[nodiscard]] double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  [[nodiscard]] std::string str() {
    const std::uint32_t len = u32();
    need(len);
    std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return s;
  }

  [[nodiscard]] std::vector<std::uint8_t> bytes(std::size_t len) {
    need(len);
    std::vector<std::uint8_t> b(data_ + pos_, data_ + pos_ + len);
    pos_ += len;
    return b;
  }

  /// A u32 item count, refused unless @p n items of at least
  /// @p min_bytes each fit in the bytes left: a lying count must fail
  /// typed here, never size an allocation.
  [[nodiscard]] std::uint32_t count(std::size_t min_bytes) {
    const std::uint32_t n = u32();
    if (n > (size_ - pos_) / min_bytes) {
      throw SimError("PSCK checkpoint: count " + std::to_string(n) +
                     " exceeds the bytes left");
    }
    return n;
  }

  [[nodiscard]] bool exhausted() const { return pos_ == size_; }

 private:
  void need(std::size_t n) const {
    if (size_ - pos_ < n) throw SimError("PSCK checkpoint: truncated file");
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace

std::vector<std::uint8_t> serialize_checkpoint(const Checkpoint& cp) {
  const SamplePlan& plan = cp.plan;
  std::vector<std::uint8_t> out;
  for (const char c : kMagic) out.push_back(static_cast<std::uint8_t>(c));
  put_u32(out, kCheckpointVersion);
  put_u64(out, plan.seed);
  put_u64(out, plan.total_instructions);
  put_u64(out, plan.params.interval_instructions);
  put_u32(out, plan.params.dim);
  put_u32(out, plan.params.max_clusters);
  put_u32(out, plan.params.warm_lines);
  put_u32(out, plan.params.warmup_intervals);
  put_str(out, plan.workload);
  put_u64(out, plan.intervals);
  put_u64(out, plan.unique_blocks);
  put_u32(out, plan.clusters);
  put_u32(out, static_cast<std::uint32_t>(plan.slices.size()));
  for (const Slice& s : plan.slices) {
    put_u64(out, s.start);
    put_u64(out, s.instructions);
    put_u64(out, s.interval_index);
    put_u32(out, s.cluster);
    put_f64(out, s.weight);
    put_u64(out, s.warm_start);
    put_u32(out, static_cast<std::uint32_t>(s.warm_lines.size()));
    for (const Addr line : s.warm_lines) put_u64(out, line);
  }
  put_u32(out, static_cast<std::uint32_t>(cp.states.size()));
  for (const SavedMachineState& st : cp.states) {
    put_str(out, st.scheme);
    put_u32(out, static_cast<std::uint32_t>(st.bytes.size()));
    out.insert(out.end(), st.bytes.begin(), st.bytes.end());
  }
  return out;
}

Checkpoint deserialize_checkpoint(const std::uint8_t* data,
                                  std::size_t size) {
  Reader r(data, size);
  const std::vector<std::uint8_t> magic = r.bytes(4);
  if (std::memcmp(magic.data(), kMagic, 4) != 0) {
    throw SimError("PSCK checkpoint: bad magic");
  }
  const std::uint32_t version = r.u32();
  if (version != kCheckpointVersion) {
    throw SimError("PSCK checkpoint: unsupported version " +
                   std::to_string(version));
  }
  Checkpoint cp;
  SamplePlan& plan = cp.plan;
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
  const std::uint32_t state_count = r.count(kMinStateBytes);
  cp.states.reserve(state_count);
  for (std::uint32_t i = 0; i < state_count; ++i) {
    SavedMachineState st;
    st.scheme = r.str();
    const std::uint32_t len = r.u32();
    st.bytes = r.bytes(len);
    cp.states.push_back(std::move(st));
  }
  if (!r.exhausted()) {
    throw SimError("PSCK checkpoint: trailing bytes");
  }
  return cp;
}

void write_checkpoint_file(const std::string& path, const Checkpoint& cp) {
  faults::check(faults::Site::PsckWrite, path);
  const std::vector<std::uint8_t> bytes = serialize_checkpoint(cp);
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

Checkpoint read_checkpoint_file(const std::string& path) {
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
