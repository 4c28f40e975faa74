#include "workload/synthetic_spec.hpp"

#include <utility>

#include "common/single_flight.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"
#include "workload/trace.hpp"

namespace prestage::workload {

SyntheticWorkloadSpec::SyntheticWorkloadSpec(std::string benchmark,
                                             std::uint64_t seed)
    : benchmark_(std::move(benchmark)),
      program_(generate_program(profile_for(benchmark_), seed)) {}

std::unique_ptr<TraceSource> SyntheticWorkloadSpec::make_source(
    std::uint64_t seed) const {
  return std::make_unique<TraceGenerator>(program_, seed);
}

std::shared_ptr<const SyntheticWorkloadSpec> synthetic_workload(
    const std::string& benchmark, std::uint64_t seed) {
  static SingleFlight<std::pair<std::string, std::uint64_t>,
                      SyntheticWorkloadSpec>
      cache;
  return cache.get({benchmark, seed}, [&] {
    return std::make_shared<const SyntheticWorkloadSpec>(benchmark, seed);
  });
}

}  // namespace prestage::workload
