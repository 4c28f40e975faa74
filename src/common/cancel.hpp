// The exception a runaway run point ends with.
//
// Cpu::run's outer loop checks MachineConfig::max_host_seconds every few
// thousand iterations and throws PointCancelled once the run has used
// its budget. Purely cooperative: nothing is interrupted mid-cycle, so
// the machine state a cancelled run abandons was never half-updated.
#pragma once

#include "common/prestage_assert.hpp"

namespace prestage {

/// Thrown by a cancelled Cpu::run. Derives SimError so campaign catch
/// sites quarantine a cancelled point exactly like a throwing one.
class PointCancelled : public SimError {
 public:
  using SimError::SimError;
};

}  // namespace prestage
