#include "workload/trace_file.hpp"

#include <algorithm>
#include <cstddef>
#include <fstream>

#include "common/bytes.hpp"
#include "common/faultpoint.hpp"
#include "common/prestage_assert.hpp"
#include "workload/champsim.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"

namespace prestage::workload {
namespace {

constexpr std::size_t kRecordBytes = 29;
/// Magic, version, record count, two seeds, name length, name.
constexpr std::size_t kMaxHeaderBytes = 4 + 4 + 8 + 8 + 8 + 1 + 255;

std::string file_context(const std::string& path) {
  return "trace file '" + path + "'";
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
  const std::string context = file_context(path);
  std::ifstream in(path, std::ios::binary);
  if (!in) throw SimError(context + ": cannot open");

  // The header is at most kMaxHeaderBytes; a shorter file still yields
  // the most specific error its bytes allow (bad magic before truncation).
  std::vector<std::uint8_t> buf(kMaxHeaderBytes);
  in.read(reinterpret_cast<char*>(buf.data()),
          static_cast<std::streamsize>(buf.size()));
  ByteReader head(buf.data(), static_cast<std::size_t>(in.gcount()), context);
  if (head.chars(4) != std::string_view(kTraceMagic, 4)) {
    head.fail("bad magic");
  }
  TraceHeader h;
  h.version = head.u32();
  if (h.version != kTraceVersion) {
    head.fail("unsupported trace version " + std::to_string(h.version) +
              " (expected " + std::to_string(kTraceVersion) + ")");
  }
  h.record_count = head.u64();
  h.program_seed = head.u64();
  h.trace_seed = head.u64();
  h.benchmark = std::string(head.chars(head.u8()));
  const std::uint64_t data_offset = head.position();
  if (h.record_count == 0) head.fail("no records");

  // Division (not multiplication) so a crafted record_count cannot wrap
  // the check via u64 overflow.
  in.clear();
  in.seekg(0, std::ios::end);
  const std::uint64_t data_bytes =
      static_cast<std::uint64_t>(in.tellg()) - data_offset;
  if (data_bytes % kRecordBytes != 0 ||
      h.record_count != data_bytes / kRecordBytes) {
    head.fail("truncated");
  }
  in.seekg(static_cast<std::streamoff>(data_offset));
  on_header(h);

  constexpr std::size_t kBufferRecords = 4096;
  buf.resize(kBufferRecords * kRecordBytes);
  std::uint64_t index = 0;
  bool last_ends_stream = false;
  while (index < h.record_count) {
    const std::uint64_t want =
        std::min<std::uint64_t>(kBufferRecords, h.record_count - index);
    in.read(reinterpret_cast<char*>(buf.data()),
            static_cast<std::streamsize>(want * kRecordBytes));
    ByteReader r(buf.data(), static_cast<std::size_t>(in.gcount()), context);
    // Register ids index fixed-size scoreboard arrays in the backend and
    // op bytes select switch arms, so both must be validated here: a
    // corrupt byte has to fail like every other malformed-trace case, not
    // write out of bounds downstream.
    const auto reg = [&r]() {
      const std::uint8_t id = r.u8();
      if (id >= kNumRegs && id != kNoReg) r.fail("bad register id");
      return id;
    };
    for (std::uint64_t end = index + want; index < end; ++index) {
      DynInst d;
      d.pc = r.u64();
      d.data_addr = r.u64();
      d.next_pc = r.u64();
      const std::uint8_t op = r.u8();
      if (op > static_cast<std::uint8_t>(OpClass::Return)) {
        r.fail("bad op class");
      }
      d.op = static_cast<OpClass>(op);
      d.dst = reg();
      d.src1 = reg();
      d.src2 = reg();
      const std::uint8_t flags = r.u8();
      d.taken = (flags & 1U) != 0;
      d.ends_stream = (flags & 2U) != 0;
      d.seq = index;
      last_ends_stream = d.ends_stream;
      fn(d);
    }
  }
  if (!last_ends_stream) head.fail("last record does not end a stream");
  return h;
}

}  // namespace

void write_trace_file(const std::string& path, const TraceHeader& header,
                      const std::vector<DynInst>& records) {
  PRESTAGE_ASSERT(header.benchmark.size() <= 255,
                  "trace benchmark name too long");
  std::vector<std::uint8_t> bytes;
  bytes.reserve(kMaxHeaderBytes + records.size() * kRecordBytes);
  ByteWriter w(bytes);
  w.chars({kTraceMagic, 4});
  w.u32(kTraceVersion);
  w.u64(records.size());
  w.u64(header.program_seed);
  w.u64(header.trace_seed);
  w.u8(static_cast<std::uint8_t>(header.benchmark.size()));
  w.chars(header.benchmark);
  for (const DynInst& d : records) {
    w.u64(d.pc);
    w.u64(d.data_addr);
    w.u64(d.next_pc);
    w.u8(static_cast<std::uint8_t>(d.op));
    w.u8(d.dst);
    w.u8(d.src1);
    w.u8(d.src2);
    w.u8(static_cast<std::uint8_t>((d.taken ? 1U : 0U) |
                                   (d.ends_stream ? 2U : 0U)));
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw SimError(file_context(path) + ": cannot open for writing");
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out.good()) throw SimError(file_context(path) + ": write failed");
}

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
  if (!in) throw SimError(file_context(path) + ": cannot open");
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
  throw SimError(file_context(path) +
                 ": unrecognized format (neither PSTR nor raw ChampSim)");
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
