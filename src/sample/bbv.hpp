// Basic-block-vector profiling (SimPoint-style, Sherwood et al.).
//
// One streaming pass over a workload::TraceSource chops the dynamic
// instruction stream into fixed-size intervals and summarizes each as a
// basic-block vector: per-block instruction counts, random-projected to
// a small dimension so interval signatures are O(dim) regardless of the
// code footprint. Blocks are identified by their stream start PC (the
// granularity the front-end fetches at), weighted by instruction count —
// faithful to SimPoint's BBV while matching this simulator's stream
// decomposition. Projection signs come from a stateless hash of the
// block address, so two profiles of the same trace are bit-identical
// with no RNG and no iteration-order sensitivity. Per stream, the pass
// only adds the stream's length to its block's integer weight; each
// distinct block is projected once, when its interval closes
// (SignatureAccumulator), so a profile costs about what its span walk
// costs.
//
// The same pass captures, at every interval boundary, the trailing
// window of instruction-line addresses — the functional-warming
// checkpoint a sampled run replays into any cache geometry before
// simulating the interval (checkpoint.hpp stores them; runner.cpp
// applies them via Cpu::warm_ifetch) — and, at a few interval starts, a
// clone of the source itself: the waypoints a plan's snapshot walk
// resumes from instead of walking the trace again from instruction 0.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/addr_map.hpp"
#include "common/types.hpp"
#include "workload/trace.hpp"

namespace prestage::sample {

/// Streaming accumulator for one interval's projected BBV. Used by the
/// profiler and by bench/micro/micro_bbv.cpp.
///
/// add() only sums an integer weight per distinct block of the open
/// interval (one flat-map update per stream); finish() projects each
/// block once. A block's projection is ±weight in every dimension, so
/// every addend is an integer, and every partial sum is bounded by the
/// interval's instruction count, far below 2^53: the sums are exact in
/// any order, and the signature is bit-identical to adding each
/// stream's ±weight to every dimension as it arrives (a zero sum is
/// +0.0 both ways).
class SignatureAccumulator {
 public:
  explicit SignatureAccumulator(std::uint32_t dim) : acc_(dim, 0) {}

  /// Adds @p weight dynamic instructions executed by the block whose
  /// stream starts at @p block_pc (!= kNoAddr).
  void add(Addr block_pc, std::uint64_t weight);

  /// The distinct blocks added since the last finish(), in first-add
  /// order.
  [[nodiscard]] const std::vector<Addr>& blocks() const noexcept {
    return blocks_;
  }

  /// L2-normalized signature; the accumulator resets for the next
  /// interval. An empty interval yields the zero vector.
  [[nodiscard]] std::vector<double> finish();

 private:
  AddrMap slot_;  ///< block pc -> its index in blocks_ and weights_
  std::vector<Addr> blocks_;
  std::vector<std::uint64_t> weights_;
  std::vector<std::int64_t> acc_;  ///< finish()'s per-dimension sums
};

/// Cosine similarity of two equal-dim signatures (1.0 = same phase).
/// Zero vectors compare as similarity 0.
[[nodiscard]] double cosine_similarity(const std::vector<double>& a,
                                       const std::vector<double>& b);

/// One profiled interval.
struct IntervalProfile {
  std::uint64_t start = 0;         ///< first instruction (stream-aligned)
  std::uint64_t instructions = 0;  ///< actual length (>= nominal)
  std::vector<double> signature;   ///< unit-norm projected BBV
  /// Trailing instruction-line addresses (oldest first, deduplicated
  /// against the previous line) observed before `start` — the functional
  /// i-cache warm-up stream for a slice beginning here.
  std::vector<Addr> warm_lines;
};

/// Whole-trace profile: what the clusterer and planner consume.
struct TraceProfile {
  std::uint64_t total_instructions = 0;  ///< sum over intervals
  std::uint64_t interval_instructions = 0;  ///< nominal interval length
  std::uint32_t dim = 0;
  std::uint64_t unique_blocks = 0;  ///< distinct stream-start PCs seen
  std::vector<IntervalProfile> intervals;
  /// Waypoints: clones of the profiled source at every k-th interval
  /// start, ascending, none at the first or past the last. Each sits at
  /// a stream boundary, and its instructions() is that interval's start
  /// when the source was fresh.
  std::vector<std::unique_ptr<workload::TraceSource>> waypoints;
};

/// Streams @p source for at least @p total_instructions, closing each
/// interval at the first stream boundary at or past the nominal length —
/// so every interval start is stream-aligned and a snapshot of the same
/// trace taken there starts a whole stream. Reads pc-contiguous spans
/// (TraceSource::fill_spans) and stops exactly at the end of the last
/// interval, so @p source is left at the profile's total_instructions.
/// Each stream counts for its start PC and length; the warm-line ring
/// sees every line a span covers; unique_blocks grows from each closed
/// interval's distinct blocks. Keeps a waypoint at every k-th interval
/// start, k = ceil(ceil(total / interval) / 16), so at most 15:
/// a span batch never reads past the earliest position the next
/// waypoint's interval can open at, and the stream that reaches it is
/// read one span at a time, so each clone is taken exactly at its
/// interval start. Deterministic: same source state, same profile.
[[nodiscard]] TraceProfile profile_source(workload::TraceSource& source,
                                          std::uint64_t total_instructions,
                                          std::uint64_t interval_instructions,
                                          std::uint32_t dim,
                                          std::uint32_t warm_lines);

}  // namespace prestage::sample
