#include "workload/trace_file.hpp"

#include <algorithm>
#include <cstddef>
#include <fstream>

#include "common/faultpoint.hpp"
#include "common/prestage_assert.hpp"
#include "workload/champsim.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"

namespace prestage::workload {
namespace {

constexpr std::size_t kRecordBytes = 29;

[[noreturn]] void file_error(const std::string& path,
                             const std::string& what) {
  throw SimError("trace file '" + path + "': " + what);
}

// Little-endian field encoding, independent of host byte order.
void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

class ByteCursor {
 public:
  ByteCursor(const std::string& bytes, const std::string& path)
      : bytes_(bytes), path_(path) {}

  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }
  [[nodiscard]] std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<std::uint8_t>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }
  [[nodiscard]] std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<std::uint8_t>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }
  [[nodiscard]] std::string chars(std::size_t n) {
    need(n);
    std::string s = bytes_.substr(pos_, n);
    pos_ += n;
    return s;
  }
  [[nodiscard]] std::size_t remaining() const {
    return bytes_.size() - pos_;
  }

 private:
  void need(std::size_t n) const {
    if (bytes_.size() - pos_ < n) file_error(path_, "truncated");
  }

  const std::string& bytes_;
  const std::string& path_;
  std::size_t pos_ = 0;
};

}  // namespace

void write_trace_file(const std::string& path, const TraceHeader& header,
                      const std::vector<DynInst>& records) {
  PRESTAGE_ASSERT(header.benchmark.size() <= 255,
                  "trace benchmark name too long");
  std::string bytes;
  bytes.reserve(64 + records.size() * kRecordBytes);
  bytes.append(kTraceMagic, 4);
  put_u32(bytes, kTraceVersion);
  put_u64(bytes, records.size());
  put_u64(bytes, header.program_seed);
  put_u64(bytes, header.trace_seed);
  bytes.push_back(static_cast<char>(header.benchmark.size()));
  bytes.append(header.benchmark);
  for (const DynInst& d : records) {
    put_u64(bytes, d.pc);
    put_u64(bytes, d.data_addr);
    put_u64(bytes, d.next_pc);
    bytes.push_back(static_cast<char>(d.op));
    bytes.push_back(static_cast<char>(d.dst));
    bytes.push_back(static_cast<char>(d.src1));
    bytes.push_back(static_cast<char>(d.src2));
    const std::uint8_t flags = (d.taken ? 1U : 0U) |
                               (d.ends_stream ? 2U : 0U);
    bytes.push_back(static_cast<char>(flags));
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) file_error(path, "cannot open for writing");
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out.good()) file_error(path, "write failed");
}

namespace {

/// Parses just the header from an open stream, reading only the header
/// bytes (fixed prefix + name). A shorter file still yields the most
/// specific error the bytes allow (bad magic before truncation, like
/// the in-memory parser). Leaves the stream positioned at the first
/// record; returns the header plus its byte size.
struct StreamedHeader {
  TraceHeader header;
  std::uint64_t data_offset = 0;
};

StreamedHeader parse_streamed_header(std::ifstream& in,
                                     const std::string& path) {
  // Fixed-size header prefix: magic, version, record count, two seeds,
  // name length.
  constexpr std::size_t kFixedHeader = 4 + 4 + 8 + 8 + 8 + 1;
  std::string prefix(kFixedHeader, '\0');
  in.read(prefix.data(), static_cast<std::streamsize>(kFixedHeader));
  prefix.resize(static_cast<std::size_t>(in.gcount()));
  ByteCursor cur(prefix, path);
  const std::string magic = cur.chars(4);
  if (magic != std::string(kTraceMagic, 4)) file_error(path, "bad magic");
  TraceHeader h;
  h.version = cur.u32();
  if (h.version != kTraceVersion) {
    file_error(path, "unsupported trace version " +
                         std::to_string(h.version) + " (expected " +
                         std::to_string(kTraceVersion) + ")");
  }
  h.record_count = cur.u64();
  h.program_seed = cur.u64();
  h.trace_seed = cur.u64();
  const std::uint8_t name_len = cur.u8();
  std::string name(name_len, '\0');
  in.read(name.data(), name_len);
  if (static_cast<std::size_t>(in.gcount()) != name_len) {
    file_error(path, "truncated");
  }
  h.benchmark = std::move(name);
  return {std::move(h), kFixedHeader + name_len};
}

/// The shared streaming decoder: buffered reads, one callback per
/// record, a header hook before the first record (so read_trace_file
/// can reserve). All validation lives here — both public readers must
/// fail identically on the same corrupt bytes.
TraceHeader stream_records_impl(
    const std::string& path,
    const std::function<void(const TraceHeader&)>& on_header,
    const std::function<void(const DynInst&)>& fn) {
  faults::check(faults::Site::TraceRead, path);
  std::ifstream in(path, std::ios::binary);
  if (!in) file_error(path, "cannot open");
  auto [h, data_offset] = parse_streamed_header(in, path);
  if (h.record_count == 0) file_error(path, "no records");

  // Division (not multiplication) so a crafted record_count cannot wrap
  // the check via u64 overflow.
  in.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(in.tellg());
  const std::uint64_t data_bytes = file_size - data_offset;
  if (data_bytes % kRecordBytes != 0 ||
      h.record_count != data_bytes / kRecordBytes) {
    file_error(path, "truncated");
  }
  in.seekg(static_cast<std::streamoff>(data_offset));
  on_header(h);

  // Register ids index fixed-size scoreboard arrays in the backend and
  // op bytes select switch arms, so both must be validated here: a
  // corrupt byte has to fail like every other malformed-trace case, not
  // write out of bounds downstream.
  const auto checked_reg = [&](std::uint8_t r) {
    if (r >= kNumRegs && r != kNoReg) file_error(path, "bad register id");
    return r;
  };
  const auto get_u64 = [](const std::uint8_t* b) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
    }
    return v;
  };

  constexpr std::size_t kBufferRecords = 4096;
  std::vector<std::uint8_t> buf(kBufferRecords * kRecordBytes);
  std::uint64_t index = 0;
  bool last_ends_stream = false;
  while (index < h.record_count) {
    const std::uint64_t want =
        std::min<std::uint64_t>(kBufferRecords, h.record_count - index);
    in.read(reinterpret_cast<char*>(buf.data()),
            static_cast<std::streamsize>(want * kRecordBytes));
    if (static_cast<std::uint64_t>(in.gcount()) != want * kRecordBytes) {
      file_error(path, "read failed");
    }
    for (std::uint64_t r = 0; r < want; ++r, ++index) {
      const std::uint8_t* b = buf.data() + r * kRecordBytes;
      DynInst d;
      d.pc = get_u64(b);
      d.data_addr = get_u64(b + 8);
      d.next_pc = get_u64(b + 16);
      const std::uint8_t op = b[24];
      if (op > static_cast<std::uint8_t>(OpClass::Return)) {
        file_error(path, "bad op class");
      }
      d.op = static_cast<OpClass>(op);
      d.dst = checked_reg(b[25]);
      d.src1 = checked_reg(b[26]);
      d.src2 = checked_reg(b[27]);
      const std::uint8_t flags = b[28];
      d.taken = (flags & 1U) != 0;
      d.ends_stream = (flags & 2U) != 0;
      d.seq = index;
      last_ends_stream = d.ends_stream;
      fn(d);
    }
  }
  if (!last_ends_stream) {
    file_error(path, "last record does not end a stream");
  }
  return h;
}

}  // namespace

TraceFile read_trace_file(const std::string& path) {
  TraceFile file;
  file.header = stream_records_impl(
      path,
      [&file](const TraceHeader& h) { file.records.reserve(h.record_count); },
      [&file](const DynInst& d) { file.records.push_back(d); });
  return file;
}

TraceHeader stream_trace_records(
    const std::string& path, const std::function<void(const DynInst&)>& fn) {
  return stream_records_impl(path, [](const TraceHeader&) {}, fn);
}

TraceFormat detect_trace_format(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) file_error(path, "cannot open");
  const auto size = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0);
  char magic[4] = {};
  if (size >= 4) in.read(magic, 4);
  if (size >= 4 && std::string(magic, 4) == std::string(kTraceMagic, 4)) {
    return TraceFormat::Native;
  }
  if (size > 0 && size % kChampSimRecordBytes == 0) {
    return TraceFormat::ChampSim;
  }
  file_error(path, "unrecognized format (neither PSTR nor raw ChampSim)");
}

// --- ReplayTraceSource ------------------------------------------------------

ReplayTraceSource::ReplayTraceSource(
    std::shared_ptr<const std::vector<DynInst>> records)
    : records_(std::move(records)) {
  PRESTAGE_ASSERT(records_ != nullptr && !records_->empty(),
                  "replay source needs at least one record");
}

std::size_t ReplayTraceSource::fill(DynInst* out, std::size_t n) {
  const std::vector<DynInst>& recs = *records_;
  std::size_t filled = 0;
  while (filled < n) {
    if (pos_ == recs.size()) {
      // Wraps land on stream boundaries: the format guarantees the
      // final record ends a stream.
      pos_ = 0;
      ++wraps_;
    }
    const std::size_t take = std::min(n - filled, recs.size() - pos_);
    std::copy_n(recs.begin() + static_cast<std::ptrdiff_t>(pos_), take,
                out + filled);
    for (std::size_t i = 0; i < take; ++i) {
      DynInst& d = out[filled + i];
      d.seq = emitted_++;
      // A taken call pushes its continuation, a taken return pops it;
      // the pop is defensive, as an imported trace can start mid-function.
      if (d.op == OpClass::Call && d.taken) {
        call_stack_.push_back(d.pc + kInstrBytes);
      } else if (d.op == OpClass::Return && d.taken &&
                 !call_stack_.empty()) {
        call_stack_.pop_back();
      }
    }
    pos_ += take;
    filled += take;
  }
  return filled;
}

std::vector<Addr> ReplayTraceSource::call_stack_pcs(
    std::size_t max_depth) const {
  std::vector<Addr> pcs;
  const std::size_t n = std::min(max_depth, call_stack_.size());
  pcs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pcs.push_back(call_stack_[call_stack_.size() - 1 - i]);
  }
  return pcs;
}

std::unique_ptr<TraceSource> ReplayTraceSource::clone() const {
  return std::make_unique<ReplayTraceSource>(*this);
}

// --- ReplayWorkloadSpec -----------------------------------------------------

ReplayWorkloadSpec::ReplayWorkloadSpec(TraceHeader header,
                                       std::vector<DynInst> records,
                                       Program program, std::string name)
    : header_(std::move(header)),
      records_(std::make_shared<const std::vector<DynInst>>(
          std::move(records))),
      program_(std::move(program)),
      name_(std::move(name)) {}

std::unique_ptr<TraceSource> ReplayWorkloadSpec::make_source(
    std::uint64_t seed) const {
  (void)seed;  // a replay is fully determined by its records
  return std::make_unique<ReplayTraceSource>(records_);
}

std::shared_ptr<const ReplayWorkloadSpec> load_replay_spec(
    const std::string& path) {
  TraceFile file = read_trace_file(path);
  Program program = generate_program(profile_for(file.header.benchmark),
                                     file.header.program_seed);
  const std::string name = file.header.benchmark;
  return std::make_shared<const ReplayWorkloadSpec>(
      std::move(file.header), std::move(file.records), std::move(program),
      name);
}

}  // namespace prestage::workload
