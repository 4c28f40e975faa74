// Dynamic execution: the oracle trace walker.
//
// TraceGenerator interprets a synthesized Program, producing the actual
// (committed-path) instruction sequence a basic-block chunk at a time,
// cut into streams at taken branches. The CPU model verifies the stream
// predictor's output against these actual streams (prediction check),
// feeds correct-path instructions to the back-end from them, and uses
// the walker's live call stack to repair the RAS on misprediction
// recovery — mirroring how the paper's trace-driven simulator combines a
// trace with a basic-block dictionary (§4).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bpred/stream.hpp"
#include "common/addr_map.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "workload/program.hpp"

namespace prestage::workload {

/// One dynamic instruction with everything the timing model needs.
struct DynInst {
  Addr pc = kNoAddr;
  OpClass op = OpClass::IntAlu;
  RegId dst = kNoReg;
  RegId src1 = kNoReg;
  RegId src2 = kNoReg;
  Addr data_addr = kNoAddr;  ///< loads/stores only
  Addr next_pc = kNoAddr;    ///< actual successor PC
  bool taken = false;        ///< actual direction (control only)
  bool ends_stream = false;  ///< last instruction of an actual stream
  std::uint64_t seq = 0;     ///< program order, from 0
};

/// A pc-contiguous run of dynamic instructions: `length` records at
/// start, start + 4, ...; only the last can end a stream. What a pass
/// that needs only control flow (the BBV profiler, a snapshot walk)
/// reads instead of DynInsts.
struct TraceSpan {
  Addr start = kNoAddr;
  std::uint32_t length = 0;
  bool ends_stream = false;  ///< the run's last instruction ends a stream
};

/// Where dynamic (committed-path) instructions come from.
///
/// The CPU model is agnostic to the trace's origin: the synthetic walker
/// (TraceGenerator), a recorded trace file replayed from disk, or an
/// imported external trace (e.g. ChampSim) all present one flat record
/// stream, read two ways, which may be interleaved freely: DynInst
/// batches (fill — the oracle's path) and pc-contiguous spans
/// (fill_spans — passes that need no per-instruction metadata). A
/// source is conceptually infinite: file-backed sources wrap around.
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Batched decode: fills out[0..n) with the next n dynamic
  /// instructions of the flat record stream (stream boundaries are
  /// carried by DynInst::ends_stream / next_pc, so callers re-segment
  /// at will). Always returns n — sources are conceptually infinite.
  [[nodiscard]] virtual std::size_t fill(DynInst* out, std::size_t n) = 0;

  /// Span walk: fills out[0..k) with the next records as pc-contiguous
  /// spans and returns k <= @p max_spans. Stops after exactly
  /// @p max_instructions records unless the spans run out first, so a
  /// walk can land mid-block or mid-stream. Concatenated, the spans are
  /// the records fill() would return (pc and ends_stream; the rest are
  /// not materialized). A span ends at a stream end; other splits are
  /// the source's choice. The default derives spans from fill(),
  /// splitting at ends_stream and at any pc discontinuity, and never
  /// reads a record it cannot place; the synthetic walker walks natively
  /// and builds no DynInst.
  [[nodiscard]] virtual std::size_t fill_spans(TraceSpan* out,
                                               std::size_t max_spans,
                                               std::uint64_t max_instructions);

  /// Total instructions emitted so far.
  [[nodiscard]] virtual std::uint64_t instructions() const = 0;

  /// Live call stack as return-continuation PCs, innermost first. Used to
  /// repair the speculative RAS at misprediction recovery.
  [[nodiscard]] virtual std::vector<Addr> call_stack_pcs(
      std::size_t max_depth) const = 0;

  /// Snapshot: an independent source in this one's exact state, whose
  /// records and call stacks from here on are identical to this one's.
  /// Reads only, so concurrent clones of one shared const source are
  /// safe. A synthetic walker's clone borrows the walker's Program, like
  /// the walker itself.
  [[nodiscard]] virtual std::unique_ptr<TraceSource> clone() const = 0;
};

/// The next @p n records of @p source through fill(), continued to the
/// end of the stream the last of them belongs to: whole streams, as a
/// trace file holds them. From a stream boundary, n = 1 reads exactly
/// one stream.
[[nodiscard]] std::vector<DynInst> read_streams(TraceSource& source,
                                                std::uint64_t n);

/// The synthetic walker. One block-granular state machine (advance())
/// drives both read paths: each step covers a whole chunk of the
/// current basic block, bounded by the block end, the kMaxStreamInstrs
/// split and the caller's limit, and draws that chunk's data addresses
/// and its branch outcome in program order. Data addresses are drawn
/// only at the chunk's loads and stores, visited through the block's
/// mem_mask, so a walk costs per block chunk and per memory access, not
/// per instruction; both read paths make the same draws in the same
/// order, so a span walk leaves the RNG where a record walk would. The
/// read paths differ only in what they write per chunk: records (fill,
/// data_addr filled in at the same mask bits) or one span extension
/// (fill_spans). A block longer than kMemMaskBits is refused (SimError).
class TraceGenerator final : public TraceSource {
 public:
  TraceGenerator(const Program& program, std::uint64_t seed);

  /// Native batch path: records written a block chunk at a time.
  [[nodiscard]] std::size_t fill(DynInst* out, std::size_t n) override;

  /// Native span path: the same walk, no records. A generator stream is
  /// always pc-contiguous (blocks are laid out back to back), so each
  /// span is a whole stream or the part of one this call reached.
  [[nodiscard]] std::size_t fill_spans(
      TraceSpan* out, std::size_t max_spans,
      std::uint64_t max_instructions) override;

  /// Total instructions emitted so far.
  [[nodiscard]] std::uint64_t instructions() const noexcept override {
    return seq_;
  }

  [[nodiscard]] std::unique_ptr<TraceSource> clone() const override;

  /// Live call stack as return-continuation PCs, innermost first. Used to
  /// repair the speculative RAS at misprediction recovery.
  [[nodiscard]] std::vector<Addr> call_stack_pcs(
      std::size_t max_depth) const override;

  /// Number of region switches so far (calibration tests).
  [[nodiscard]] std::uint64_t region_switches() const noexcept {
    return region_switches_;
  }

 private:
  /// One advance(): `length` instructions from `start`; the rest
  /// describes the last of them.
  struct Chunk {
    Addr start = kNoAddr;
    std::uint32_t length = 0;
    bool taken = false;
    bool ends_stream = false;
    Addr next_pc = kNoAddr;
  };

  /// The walk core: advances by one block chunk of at most @p limit
  /// (>= 1) instructions. With kRecords, also writes the chunk's
  /// records to out[0..length).
  template <bool kRecords>
  Chunk advance(std::uint64_t limit, DynInst* out);

  [[nodiscard]] bool eval_branch(BlockId id, const BasicBlock& b);
  [[nodiscard]] Addr data_address(std::uint32_t site_id);
  void enter_block(BlockId id);
  void maybe_switch_region();
  [[nodiscard]] std::uint64_t draw_phase_budget();

  const Program& prog_;
  Rng rng_;
  BlockId cur_block_;
  std::uint32_t cur_idx_ = 0;
  std::uint64_t seq_ = 0;
  std::uint32_t stream_len_ = 0;  ///< instructions in the current stream
  std::uint32_t region_ = 0;
  std::uint64_t region_switches_ = 0;
  std::uint64_t phase_start_seq_ = 0;
  std::uint64_t phase_budget_ = 0;
  std::vector<BlockId> call_stack_;  ///< continuation blocks
  /// Periodic-branch iteration counts, keyed by block id. Open-addressed
  /// flat table: the lookup sits on the per-branch path of trace
  /// generation, where unordered_map's node hops dominated the profile.
  AddrMap latch_counts_;
  std::vector<std::uint64_t> site_cursors_;
};

/// Deterministic pseudo-random data address for a wrong-path memory
/// instruction: wrong-path pollution must be repeatable run to run.
[[nodiscard]] Addr wrong_path_data_addr(const Program& prog, Addr pc,
                                        std::uint64_t salt);

/// Simulated address-space anchors.
inline constexpr Addr kStackBase = 0x7ff00000;
inline constexpr Addr kStackBytes = 4096;
inline constexpr Addr kHeapBase = 0x20000000;

}  // namespace prestage::workload
