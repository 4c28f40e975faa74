// A complete workload: the static program image plus a factory for the
// dynamic instruction source that executes over it.
//
// The CPU always runs a WorkloadSpec: MachineConfig's optional one when
// present, else the shared synthetic spec for (benchmark name, seed)
// (synthetic_spec.hpp). The override is how recorded trace files and
// imported external traces (ChampSim) drive the full simulation
// pipeline: `prestage trace replay`, or any Cpu built around one.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "workload/program.hpp"
#include "workload/trace.hpp"

namespace prestage::workload {

class WorkloadSpec {
 public:
  virtual ~WorkloadSpec() = default;

  /// The static program image (basic-block dictionary) the trace runs
  /// over. Must stay valid for the lifetime of the spec.
  [[nodiscard]] virtual const Program& program() const = 0;

  /// Label used where a benchmark name would appear in reports.
  [[nodiscard]] virtual std::string name() const = 0;

  /// Creates the dynamic instruction source for one simulation. Called
  /// once per Cpu; implementations shared by Cpus on parallel workers
  /// must be safe to call concurrently.
  [[nodiscard]] virtual std::unique_ptr<TraceSource> make_source(
      std::uint64_t seed) const = 0;
};

}  // namespace prestage::workload
