// WorkloadSpec adapter for the synthetic benchmark generator, and the
// process-wide cache every synthetic run draws it from.
//
// A synthetic workload is a pure function of (benchmark, seed): the
// program image generate_program builds for that pair, plus a
// TraceGenerator walk over it per make_source() call. Every consumer
// that simulates or streams a synthetic benchmark — the Cpu when
// MachineConfig carries no workload, the sampling profiler, the
// `prestage sample` commands — takes the spec from synthetic_workload(),
// so a grid of machine shapes over one benchmark synthesizes its program
// once, and a sampling profile walks exactly the trace the Cpu replays.
//
// Sharing is safe because the spec is immutable: the Program is complete
// (and validated) when generate_program returns, every consumer holds it
// by const reference, and make_source() only reads it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "workload/program.hpp"
#include "workload/spec.hpp"

namespace prestage::workload {

class SyntheticWorkloadSpec final : public WorkloadSpec {
 public:
  /// Synthesizes the program for (@p benchmark, @p seed). Throws
  /// SimError for an unknown benchmark.
  SyntheticWorkloadSpec(std::string benchmark, std::uint64_t seed);

  [[nodiscard]] const Program& program() const override { return program_; }
  [[nodiscard]] std::string name() const override { return benchmark_; }
  [[nodiscard]] std::unique_ptr<TraceSource> make_source(
      std::uint64_t seed) const override;

 private:
  std::string benchmark_;
  Program program_;
};

/// The shared spec for (@p benchmark, @p seed), synthesized on first use
/// and kept for the life of the process. Thread-safe and single-flight:
/// concurrent first callers wait for one build and get the same pointer.
/// A failed build (unknown benchmark) throws and is not cached.
[[nodiscard]] std::shared_ptr<const SyntheticWorkloadSpec> synthetic_workload(
    const std::string& benchmark, std::uint64_t seed);

}  // namespace prestage::workload
