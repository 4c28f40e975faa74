#include "sample/bbv.hpp"

#include <algorithm>
#include <cmath>

#include "common/addr_map.hpp"
#include "common/prestage_assert.hpp"
#include "common/rng.hpp"

namespace prestage::sample {

namespace {

/// Warm-up streams record instruction lines at the hierarchy's universal
/// line size (every preset uses 64B lines, mem/ifetch_caches.hpp), so
/// one checkpoint replays into any L0/L1/L2 geometry.
constexpr Addr kWarmLineBytes = 64;

/// Projection signs of block @p block_pc for dimensions [64g, 64g+64):
/// bit d % 64 set means +1. A stateless hash — no RNG state,
/// bit-identical everywhere.
[[nodiscard]] std::uint64_t projection_word(Addr block_pc, std::uint32_t g) {
  return hash_mix(block_pc ^ (0x9e3779b97f4a7c15ULL * (g + 1U)));
}

/// Spans pulled per TraceSource::fill_spans() call by the profiling pass.
constexpr std::size_t kProfileSpans = 512;

/// A profile keeps a waypoint at every k-th interval start, with k
/// chosen so that fewer than this many fit.
constexpr std::uint64_t kWaypointSlots = 16;

}  // namespace

void SignatureAccumulator::add(Addr block_pc, std::uint64_t weight) {
  const auto next = static_cast<std::uint32_t>(blocks_.size());
  const std::uint32_t slot = *slot_.find_or_insert(block_pc, next);
  if (slot == next) {
    blocks_.push_back(block_pc);
    weights_.push_back(weight);
  } else {
    weights_[slot] += weight;
  }
}

std::vector<double> SignatureAccumulator::finish() {
  // Integer sums: exact, so the block order cannot change a bit.
  std::fill(acc_.begin(), acc_.end(), 0);
  const std::size_t dim = acc_.size();
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    const auto w = static_cast<std::int64_t>(weights_[b]);
    for (std::size_t g = 0; g * 64 < dim; ++g) {
      const std::uint64_t signs =
          projection_word(blocks_[b], static_cast<std::uint32_t>(g));
      const std::size_t n = std::min<std::size_t>(64, dim - g * 64);
      std::int64_t* acc = acc_.data() + g * 64;
      for (std::size_t d = 0; d < n; ++d) {
        acc[d] += ((signs >> d) & 1U) != 0 ? w : -w;
      }
    }
  }
  slot_.clear();
  blocks_.clear();
  weights_.clear();

  double sq = 0.0;
  for (const std::int64_t v : acc_) {
    // Fixed dimension order: deterministic sum.
    const auto x = static_cast<double>(v);
    sq += x * x;
  }
  const double norm = std::sqrt(sq);
  std::vector<double> out(dim, 0.0);
  if (norm > 0.0) {
    for (std::size_t d = 0; d < dim; ++d) {
      out[d] = static_cast<double>(acc_[d]) / norm;
    }
  }
  return out;
}

double cosine_similarity(const std::vector<double>& a,
                         const std::vector<double>& b) {
  PRESTAGE_ASSERT(a.size() == b.size());
  double dot = 0.0;
  double na = 0.0;
  double nb = 0.0;
  for (std::size_t d = 0; d < a.size(); ++d) {
    // Fixed dimension order: deterministic sums.
    dot += a[d] * b[d];
    na += a[d] * a[d];
    nb += b[d] * b[d];  // same fixed dimension order
  }
  if (na <= 0.0 || nb <= 0.0) return 0.0;
  return dot / std::sqrt(na * nb);
}

TraceProfile profile_source(workload::TraceSource& source,
                            std::uint64_t total_instructions,
                            std::uint64_t interval_instructions,
                            std::uint32_t dim, std::uint32_t warm_lines) {
  PRESTAGE_ASSERT(total_instructions > 0 && interval_instructions > 0 &&
                  dim > 0 && warm_lines > 0);
  TraceProfile profile;
  profile.interval_instructions = interval_instructions;
  profile.dim = dim;

  SignatureAccumulator acc(dim);
  AddrMap seen_blocks;  // membership + count only, never iterated
  // Closes the open interval: its distinct blocks join seen_blocks, and
  // its signature is projected.
  const auto close_interval = [&] {
    for (const Addr pc : acc.blocks()) {
      if (!seen_blocks.contains(pc)) seen_blocks.insert(pc, 0);
    }
    return acc.finish();
  };

  // Ring of the most recent instruction lines (consecutive duplicates
  // collapsed) — snapshot at each interval open becomes that interval's
  // functional warm-up stream.
  std::vector<Addr> ring(warm_lines, kNoAddr);
  std::size_t head = 0;
  std::size_t filled = 0;
  Addr last_line = kNoAddr;
  const auto snapshot_ring = [&] {
    std::vector<Addr> out;
    out.reserve(filled);
    for (std::size_t i = 0; i < filled; ++i) {
      out.push_back(ring[(head + warm_lines - filled + i) % warm_lines]);
    }
    return out;
  };

  // Waypoints at every `every`-th interval start (k in bbv.hpp).
  const std::uint64_t nominal_intervals =
      total_instructions / interval_instructions +
      (total_instructions % interval_instructions != 0 ? 1 : 0);
  const std::uint64_t every =
      (nominal_intervals + kWaypointSlots - 1) / kWaypointSlots;
  const std::uint64_t origin = source.instructions();

  std::uint64_t consumed = 0;  // instructions in closed streams
  std::uint64_t interval_start = 0;
  std::vector<Addr> pending_warm;  // ring state at the open interval's start
  std::vector<workload::TraceSpan> spans(kProfileSpans);
  Addr block_pc = kNoAddr;       // start PC of the open stream
  std::uint64_t block_len = 0;   // its instructions so far
  while (consumed < total_instructions) {
    // Interval i + j opens no earlier than j nominal lengths after
    // interval i did, so the next waypoint's interval cannot open before
    // `limit`. Up to the budget or that point, then one span at a time:
    // the walk never reads past the stream that closes either.
    const std::uint64_t open = profile.intervals.size();
    const std::uint64_t next_waypoint = (open / every + 1) * every;
    const std::uint64_t limit = std::min(
        total_instructions,
        interval_start + (next_waypoint - open) * interval_instructions);
    const std::uint64_t reached = consumed + block_len;
    const std::size_t got =
        reached < limit
            ? source.fill_spans(spans.data(), spans.size(), limit - reached)
            : source.fill_spans(spans.data(), 1, bpred::kMaxStreamInstrs);
    for (std::size_t i = 0; i < got; ++i) {
      const workload::TraceSpan& span = spans[i];
      if (block_len == 0) block_pc = span.start;
      block_len += span.length;
      // Every line the span covers, in order; consecutive duplicates
      // (within the span and across spans) collapse.
      const Addr last = span.start + (span.length - 1) * kInstrBytes;
      for (Addr line = line_align(span.start, kWarmLineBytes);
           line <= last; line += kWarmLineBytes) {
        if (line == last_line) continue;
        ring[head] = line;
        if (++head == warm_lines) head = 0;
        filled = std::min<std::size_t>(filled + 1, warm_lines);
        last_line = line;
      }
      if (!span.ends_stream) continue;
      acc.add(block_pc, block_len);
      consumed += block_len;
      block_len = 0;
      // Intervals close at the first stream boundary at or past the
      // nominal length, so every interval start is stream-aligned.
      if (consumed - interval_start >= interval_instructions) {
        IntervalProfile iv;
        iv.start = interval_start;
        iv.instructions = consumed - interval_start;
        iv.signature = close_interval();
        iv.warm_lines = std::move(pending_warm);
        profile.intervals.push_back(std::move(iv));
        interval_start = consumed;
        pending_warm = snapshot_ring();
        if (profile.intervals.size() % every == 0 &&
            consumed < total_instructions) {
          PRESTAGE_ASSERT(source.instructions() - origin == consumed,
                          "waypoint read past its interval start");
          profile.waypoints.push_back(source.clone());
        }
      }
    }
  }
  if (consumed > interval_start) {
    IntervalProfile iv;
    iv.start = interval_start;
    iv.instructions = consumed - interval_start;
    iv.signature = close_interval();
    iv.warm_lines = std::move(pending_warm);
    profile.intervals.push_back(std::move(iv));
  }
  profile.total_instructions = consumed;
  profile.unique_blocks = seen_blocks.size();
  return profile;
}

}  // namespace prestage::sample
