// The oracle: the actual (committed-path) execution, one stream at a time.
//
// Wraps the workload trace walker with:
//  * a remainder cursor — predictions are verified against the actual
//    stream *from the current resume point* (which sits mid-stream after
//    a recovery from a length-underprediction);
//  * a sliding DynInst window — the back-end resolves correct-path
//    instruction metadata by sequence number. The window doubles as the
//    decode ring: records arrive from the source in fixed-size
//    TraceSource::fill() batches (one virtual call per ~256 records
//    instead of one per stream), and the oracle re-segments them into
//    streams at the consume cursor;
//  * per-stream call-stack snapshots — recovery repairs the speculative
//    RAS with the call stack as of the resume point (a stream contains at
//    most one call/return, always its final instruction, so the snapshot
//    taken at stream start is exact for every resume point inside it).
//    Because the walker runs ahead of the cursor, the oracle replays the
//    stack itself from the record flags: a taken call pushes pc + 4 (its
//    continuation — blocks are contiguous, workload/program.cpp), a
//    taken return pops. Seeded from the walker before the first batch,
//    so a sliced source that starts mid-program hands over its stack.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "bpred/stream.hpp"
#include "common/prestage_assert.hpp"
#include "common/ring_buffer.hpp"
#include "workload/trace.hpp"

namespace prestage::cpu {

class Oracle {
 public:
  /// Takes any dynamic instruction source: the synthetic walker, a
  /// replayed trace file, or an imported external trace.
  explicit Oracle(std::unique_ptr<workload::TraceSource> source)
      : walker_(std::move(source)) {
    PRESTAGE_ASSERT(walker_ != nullptr);
    live_stack_ =
        walker_->call_stack_pcs(std::numeric_limits<std::size_t>::max());
    std::reverse(live_stack_.begin(), live_stack_.end());  // innermost last
    advance_stream();
  }

  /// Convenience: synthetic walker over @p program.
  Oracle(const workload::Program& program, std::uint64_t seed)
      : Oracle(std::make_unique<workload::TraceGenerator>(program, seed)) {}

  /// The actual stream from the current position: start PC, remaining
  /// length, and the successor of the underlying stream.
  [[nodiscard]] bpred::Stream remainder() const {
    bpred::Stream r;
    r.start = stream_.start + static_cast<Addr>(offset_) * kInstrBytes;
    r.length = stream_.length - offset_;
    r.next_start = stream_.next_start;
    return r;
  }

  /// Sequence number of the instruction at the current position.
  [[nodiscard]] std::uint64_t seq_at_cursor() const {
    return get(stream_start_seq_ + offset_).seq;
  }

  /// Consumes @p n instructions (n <= remainder().length). Crossing a
  /// stream boundary snapshots the call stack and segments the next
  /// stream out of the decode ring, so remainder() is always non-empty.
  void consume(std::uint32_t n) {
    PRESTAGE_ASSERT(offset_ + n <= stream_.length);
    offset_ += n;
    if (offset_ == stream_.length) advance_stream();
  }

  /// Correct-path instruction metadata by sequence number. Valid from the
  /// oldest unreleased instruction to the newest generated one.
  [[nodiscard]] const workload::DynInst& get(std::uint64_t seq) const {
    PRESTAGE_ASSERT(seq >= base_seq_ && seq - base_seq_ < window_.size(),
                    "oracle window lookup out of range");
    return window_[static_cast<std::size_t>(seq - base_seq_)];
  }

  /// Releases window entries older than @p seq (commit).
  void release_below(std::uint64_t seq) {
    while (base_seq_ < seq && !window_.empty()) {
      window_.pop_front();
      ++base_seq_;
    }
  }

  /// Call stack (innermost first) as of the current stream's start: the
  /// correct RAS contents for any resume point inside it.
  [[nodiscard]] const std::vector<Addr>& stack_snapshot() const {
    return stack_snapshot_;
  }

  [[nodiscard]] std::uint64_t instructions_generated() const {
    return walker_->instructions();
  }

 private:
  /// Records pulled per TraceSource::fill() call. Large enough to
  /// amortise the virtual dispatch and small enough that the read-ahead
  /// stays negligible; `prestage trace record` writes it too, so a
  /// replay of the recording never runs past the file's end.
  static constexpr std::size_t kFillBatch = 256;

  void refill() {
    workload::DynInst buf[kFillBatch];
    const std::size_t got = walker_->fill(buf, kFillBatch);
    PRESTAGE_ASSERT(got == kFillBatch, "trace source under-filled");
    for (std::size_t i = 0; i < got; ++i) window_.push_back(buf[i]);
  }

  void advance_stream() {
    // Snapshot as of this boundary — before the new stream's terminal
    // call/return mutates the replayed stack.
    const std::size_t depth = std::min<std::size_t>(8, live_stack_.size());
    stack_snapshot_.assign(live_stack_.rbegin(),
                           live_stack_.rbegin() +
                               static_cast<std::ptrdiff_t>(depth));

    stream_start_seq_ = scan_seq_;
    offset_ = 0;
    std::uint32_t len = 0;
    for (;;) {
      if (scan_seq_ - base_seq_ >= window_.size()) refill();
      const workload::DynInst& d =
          window_[static_cast<std::size_t>(scan_seq_ - base_seq_)];
      if (len == 0) stream_.start = d.pc;
      ++len;
      ++scan_seq_;
      if (d.op == OpClass::Call && d.taken) {
        live_stack_.push_back(d.pc + kInstrBytes);
      } else if (d.op == OpClass::Return && d.taken &&
                 !live_stack_.empty()) {
        live_stack_.pop_back();
      }
      if (d.ends_stream) {
        PRESTAGE_ASSERT(len <= bpred::kMaxStreamInstrs,
                        "stream exceeds the maximum stream length");
        stream_.length = len;
        stream_.next_start = d.next_pc;
        return;
      }
    }
  }

  std::unique_ptr<workload::TraceSource> walker_;
  bpred::Stream stream_;               ///< the current actual stream
  std::uint32_t offset_ = 0;           ///< consume cursor within it
  std::uint64_t stream_start_seq_ = 0; ///< seq of its first instruction
  std::uint64_t scan_seq_ = 0;         ///< one past its last instruction
  /// Sliding window of generated-but-unreleased instructions. A growable
  /// ring (not std::deque) so steady-state advance/release never touches
  /// the heap once the window has hit its high-water size.
  GrowableRingBuffer<workload::DynInst> window_;
  std::uint64_t base_seq_ = 0;
  std::vector<Addr> stack_snapshot_;  ///< innermost first, depth <= 8
  std::vector<Addr> live_stack_;      ///< full replayed stack, innermost last
};

}  // namespace prestage::cpu
