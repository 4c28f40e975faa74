#include "common/stats.hpp"

#include "common/json_writer.hpp"

namespace prestage {

void write_source_counts(JsonWriter& json, const SourceBreakdown& sb) {
  json.begin_object();
  for (int i = 0; i < kNumFetchSources; ++i) {
    const auto s = static_cast<FetchSource>(i);
    json.field(to_string(s), sb.count(s));
  }
  json.end_object();
}

void write_source_fractions(JsonWriter& json, const SourceBreakdown& sb) {
  json.begin_object();
  for (int i = 0; i < kNumFetchSources; ++i) {
    const auto s = static_cast<FetchSource>(i);
    json.field(to_string(s), sb.fraction(s));
  }
  json.end_object();
}

double harmonic_mean(const std::vector<double>& xs) {
  // Non-positive samples (a wedged or zero-IPC run) are skipped rather
  // than asserted on: one bad benchmark must not abort a whole suite
  // sweep. The mean is taken over the positive samples that remain.
  double inv_sum = 0.0;
  std::size_t n = 0;
  for (double x : xs) {
    if (x <= 0.0) continue;
    // FP-deterministic: accumulates in the caller's vector order.
    inv_sum += 1.0 / x;
    ++n;
  }
  return n == 0 ? 0.0 : static_cast<double>(n) / inv_sum;
}

}  // namespace prestage
