// Statistic primitives for simulator components.
//
// Each unit keeps its own Counters, Distributions and SourceBreakdowns as
// public members. Counting must be cheap (a single add on the fast path),
// so they are plain structs and formatting is deferred to report time.
//
// What a run reports is cpu::RunResult (cpu/cpu.hpp). The tables beside
// it (kRunCounts, kRunSources, kSampleCounts) list every reported count
// once with its JSON key, and every path walks them: the warm-up delta,
// sampled reconstruction, store lines, the CLI JSON and the test
// comparators. To report a new statistic, add the RunResult field, one
// table entry, and one line in Cpu::totals() reading the unit's counter.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/prestage_assert.hpp"
#include "common/types.hpp"

namespace prestage {

/// Monotonic event counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_ += n; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }
  void reset() noexcept { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Ratio of two counters, e.g. mispredicts / branches.
[[nodiscard]] inline double ratio(std::uint64_t num,
                                  std::uint64_t den) noexcept {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// Running mean/min/max of a sampled quantity (e.g. stream length).
class Distribution {
 public:
  void sample(double v) noexcept {
    // FP-deterministic: samples arrive in simulation order.
    sum_ += v;
    ++count_;
    if (v < min_ || count_ == 1) min_ = v;
    if (v > max_ || count_ == 1) max_ = v;
  }
  /// Folds @p n repeats of the same sample in one step. Bit-identical to
  /// calling sample(v) n times *only* when v and the running sum stay
  /// exactly representable (integer-valued samples below 2^53, as with
  /// occupancy counts) — the cycle-skip fast-forward relies on that, so
  /// callers must not fold fractional samples.
  void sample_n(double v, std::uint64_t n) noexcept {
    if (n == 0) return;
    // FP-deterministic: samples arrive in simulation order, and the
    // exact-representability contract above makes the fold order-free.
    sum_ += v * static_cast<double>(n);
    if (v < min_ || count_ == 0) min_ = v;
    if (v > max_ || count_ == 0) max_ = v;
    count_ += n;
  }
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  [[nodiscard]] double min() const noexcept { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return count_ ? max_ : 0.0; }
  void reset() noexcept { *this = Distribution{}; }

 private:
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::uint64_t count_ = 0;
};

/// One unit's forecast for the event-horizon fast-forward (cpu/cpu.cpp).
/// `next_event` is the earliest cycle at which the unit's tick would
/// change state on its own: <= the queried cycle means "busy this
/// cycle" (no skip), kNoCycle means only an external event can wake it.
/// `per_cycle` names the stall counter the unit's tick increments once
/// per cycle while it stays frozen (nullptr when none does) — the skip
/// folds it by the span length so counters stay byte-identical.
struct IdlePlan {
  Cycle next_event = kNoCycle;
  Counter* per_cycle = nullptr;
};

/// Per-FetchSource event counts; backs the paper's Figures 7 and 8.
class SourceBreakdown {
 public:
  void add(FetchSource s, std::uint64_t n = 1) noexcept {
    counts_[static_cast<std::size_t>(s)] += n;
  }
  [[nodiscard]] std::uint64_t count(FetchSource s) const noexcept {
    return counts_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] std::uint64_t total() const noexcept {
    std::uint64_t t = 0;
    for (auto c : counts_) t += c;
    return t;
  }
  /// Fraction served by @p s (0 when no events were recorded).
  [[nodiscard]] double fraction(FetchSource s) const noexcept {
    return ratio(count(s), total());
  }
  void reset() noexcept { counts_.fill(0); }
  SourceBreakdown& operator+=(const SourceBreakdown& o) noexcept {
    for (int i = 0; i < kNumFetchSources; ++i) counts_[i] += o.counts_[i];
    return *this;
  }
  SourceBreakdown& operator-=(const SourceBreakdown& o) noexcept {
    for (int i = 0; i < kNumFetchSources; ++i) counts_[i] -= o.counts_[i];
    return *this;
  }

 private:
  std::array<std::uint64_t, kNumFetchSources> counts_{};
};

class JsonWriter;

/// Serializes the per-source event counts as one JSON object
/// ({"PB": n, "il0": n, ...}) — the shape every report schema uses.
void write_source_counts(JsonWriter& json, const SourceBreakdown& sb);

/// Same shape with fraction() values instead of raw counts.
void write_source_fractions(JsonWriter& json, const SourceBreakdown& sb);

/// Harmonic mean, the aggregate the paper reports for per-benchmark IPC
/// (Figure 6's HMEAN bar). Zero/negative samples are skipped (the mean
/// is over the positive samples); 0.0 when none are positive.
[[nodiscard]] double harmonic_mean(const std::vector<double>& xs);

}  // namespace prestage
