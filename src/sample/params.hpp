// Sampling knobs shared by the CLI, campaign specs and run points.
//
// SamplingParams is the user-facing block (zeros mean "pick a default");
// resolve() pins every knob against a concrete instruction budget so the
// resolved values can be embedded in run-point descriptors — a changed
// default can then never silently alias an old content-hash key.
#pragma once

#include <cstdint>
#include <string>

namespace prestage::sample {

/// User-facing sampling configuration. All-zero fields select defaults
/// at resolve() time; `enabled == false` means full-run simulation and
/// every descriptor/store byte stays identical to the pre-sampling era.
struct SamplingParams {
  bool enabled = false;
  std::uint64_t interval_instructions = 0;  ///< 0 -> budget/40 clamped
  std::uint32_t dim = 0;                    ///< projected BBV dim, 0 -> 16
  std::uint32_t max_clusters = 0;           ///< k-means upper bound, 0 -> 6
  std::uint32_t warm_lines = 0;             ///< checkpoint ring size, 0 -> 256
  /// Detailed-warmup depth: each slice first simulates this many whole
  /// intervals before its measured region (caches, branch predictor and
  /// prefetcher tables warm architecturally; statistics reset at the
  /// slice boundary). 0 -> 1.
  std::uint32_t warmup_intervals = 0;

  /// Resolves every zero field against @p budget (total instructions).
  [[nodiscard]] struct ResolvedSamplingParams resolve(
      std::uint64_t budget) const;
};

/// SamplingParams with every default applied; the only form the sampler,
/// descriptors and checkpoints ever see.
struct ResolvedSamplingParams {
  bool enabled = false;
  std::uint64_t interval_instructions = 0;
  std::uint32_t dim = 0;
  std::uint32_t max_clusters = 0;
  std::uint32_t warm_lines = 0;
  std::uint32_t warmup_intervals = 0;

  /// Descriptor fragment appended to RunPoint::descriptor() when enabled,
  /// e.g. "|sample=iv5000,dim16,k4,warm256,wu1". Empty when disabled, so
  /// full-run keys are byte-identical to historical ones.
  [[nodiscard]] std::string descriptor_suffix() const;

  [[nodiscard]] bool operator==(const ResolvedSamplingParams&) const =
      default;
};

}  // namespace prestage::sample
