// The on-disk trace format and its sources: record any run to disk and
// replay it bit-identically.
//
// Format "PSTR" version 1 (all integers little-endian):
//
//   header:
//     char[4]  magic            'P' 'S' 'T' 'R'
//     u32      version          1
//     u64      record_count
//     u64      program_seed     regenerates the Program for native replays
//     u64      trace_seed       seed of the recorded walker (provenance)
//     u8       name_len
//     char[n]  benchmark name   (n == name_len, no terminator)
//   records (record_count x 29 bytes):
//     u64 pc, u64 data_addr, u64 next_pc,
//     u8 op, u8 dst, u8 src1, u8 src2,
//     u8 flags                  bit0 = taken, bit1 = ends_stream
//
// Sequence numbers are positional and not stored. A replayed source wraps
// to the first record when the file is exhausted (trace sources are
// conceptually infinite). `prestage trace record` writes every record its
// run's oracle read, decode read-ahead included, continued to the end of
// that stream (read_streams over the same walk), so a replay with the
// same configuration reads no record past the file's end and never wraps.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "workload/spec.hpp"
#include "workload/trace.hpp"

namespace prestage::workload {

inline constexpr char kTraceMagic[4] = {'P', 'S', 'T', 'R'};
inline constexpr std::uint32_t kTraceVersion = 1;

struct TraceHeader {
  std::uint32_t version = kTraceVersion;
  std::string benchmark;           ///< source benchmark (<= 255 chars)
  std::uint64_t program_seed = 0;  ///< MachineConfig seed of the recording
  std::uint64_t trace_seed = 0;    ///< walker seed used while recording
  std::uint64_t record_count = 0;
};

/// A fully-loaded trace file.
struct TraceFile {
  TraceHeader header;
  std::vector<DynInst> records;  ///< seq fields normalised to 0..n-1
};

/// Writes a trace file; throws SimError on I/O failure.
void write_trace_file(const std::string& path, const TraceHeader& header,
                      const std::vector<DynInst>& records);

/// Reads and validates a trace file; throws SimError on a missing file,
/// bad magic, unsupported version, or truncated record section.
[[nodiscard]] TraceFile read_trace_file(const std::string& path);

/// Streams a native trace file record by record in fixed-size buffered
/// reads, without materializing the record vector — the `prestage trace
/// info` fast path (O(buffer) memory for arbitrarily large traces).
/// Validation and error messages match read_trace_file exactly (which is
/// implemented on top of this). Records arrive with positional seq
/// fields, in file order. Returns the validated header.
[[nodiscard]] TraceHeader stream_trace_records(
    const std::string& path, const std::function<void(const DynInst&)>& fn);

/// Reads only the header (for `prestage trace info`).
[[nodiscard]] TraceHeader read_trace_header(const std::string& path);

/// How the bytes of a trace file should be interpreted.
enum class TraceFormat : std::uint8_t {
  Native,    ///< this simulator's PSTR format
  ChampSim,  ///< raw (uncompressed) ChampSim instruction records
};

/// Sniffs @p path: PSTR magic selects Native; otherwise a file whose size
/// is a positive multiple of the ChampSim record size is ChampSim. Throws
/// SimError when neither matches (or the file cannot be read).
[[nodiscard]] TraceFormat detect_trace_format(const std::string& path);

/// Replays an in-memory record vector as a TraceSource. The call stack
/// for RAS repair is reconstructed from the replayed calls/returns, which
/// reproduces the recorded walker's stack exactly (a call's continuation
/// is always the instruction after it).
class ReplayTraceSource final : public TraceSource {
 public:
  explicit ReplayTraceSource(
      std::shared_ptr<const std::vector<DynInst>> records);

  /// Bulk-copies record runs (wrapping at the end of the vector),
  /// renumbering seq and replaying call/return effects on the
  /// reconstructed stack.
  [[nodiscard]] std::size_t fill(DynInst* out, std::size_t n) override;

  [[nodiscard]] std::uint64_t instructions() const noexcept override {
    return emitted_;
  }
  [[nodiscard]] std::vector<Addr> call_stack_pcs(
      std::size_t max_depth) const override;

  /// Shares the record vector; copies the cursor and replayed stack.
  [[nodiscard]] std::unique_ptr<TraceSource> clone() const override;

  /// Times the cursor wrapped back to record 0 (0 for a faithful replay).
  [[nodiscard]] std::uint64_t wraps() const noexcept { return wraps_; }

 private:
  std::shared_ptr<const std::vector<DynInst>> records_;
  std::size_t pos_ = 0;
  std::uint64_t emitted_ = 0;
  std::uint64_t wraps_ = 0;
  std::vector<Addr> call_stack_;  ///< return-continuation PCs
};

/// Workload spec replaying a fixed record vector over a given program
/// image. Covers both native trace files (program regenerated from the
/// header's benchmark + seed) and imported external traces (program
/// synthesized by the importer). Thread-safe: each make_source() gets an
/// independent cursor over the shared immutable records.
class ReplayWorkloadSpec final : public WorkloadSpec {
 public:
  ReplayWorkloadSpec(TraceHeader header, std::vector<DynInst> records,
                     Program program, std::string name);

  [[nodiscard]] const Program& program() const override { return program_; }
  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] std::unique_ptr<TraceSource> make_source(
      std::uint64_t seed) const override;

  [[nodiscard]] const TraceHeader& header() const { return header_; }
  [[nodiscard]] const std::vector<DynInst>& records() const {
    return *records_;
  }

 private:
  TraceHeader header_;
  std::shared_ptr<const std::vector<DynInst>> records_;
  Program program_;
  std::string name_;
};

/// Loads a native trace file and regenerates its program image.
[[nodiscard]] std::shared_ptr<const ReplayWorkloadSpec> load_replay_spec(
    const std::string& path);

}  // namespace prestage::workload
