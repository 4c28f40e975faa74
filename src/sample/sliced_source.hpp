// Slice replay: the trace a sampled slice's Cpu runs.
//
// A sampling plan walks its workload's trace forward once, as a span
// walk that builds no records, resuming from the profile pass's
// waypoints (from instruction 0 for a plan read from a checkpoint), and
// keeps a snapshot (TraceSource::clone) at each slice's stream-aligned
// warm-up start (attach_snapshots, plan.hpp). A slice's Cpu starts from
// its own copy of that snapshot, so neither a slice nor a run point
// ever re-walks the trace prefix: the walk is paid once per plan,
// however many machine shapes the plan serves.
//
// SlicedTraceSource re-exposes such a copy with sequence numbers
// renumbered from 0 (the Oracle's commit window requires the first
// delivered seq to be 0): fill() forwards to the inner source's batch
// path and renumbers, and the span walk is the default derived from it.
#pragma once

#include <cstdint>
#include <memory>

#include "workload/spec.hpp"
#include "workload/trace.hpp"

namespace prestage::sample {

class SlicedTraceSource final : public workload::TraceSource {
 public:
  /// @p inner must sit at a stream boundary (a slice start).
  explicit SlicedTraceSource(std::unique_ptr<workload::TraceSource> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::size_t fill(workload::DynInst* out,
                                 std::size_t n) override {
    const std::size_t got = inner_->fill(out, n);
    for (std::size_t i = 0; i < got; ++i) out[i].seq = emitted_++;
    return got;
  }
  [[nodiscard]] std::uint64_t instructions() const override {
    return emitted_;
  }
  [[nodiscard]] std::vector<Addr> call_stack_pcs(
      std::size_t max_depth) const override {
    return inner_->call_stack_pcs(max_depth);
  }
  /// Clones the inner source and keeps the renumbering.
  [[nodiscard]] std::unique_ptr<workload::TraceSource> clone()
      const override {
    auto copy = std::make_unique<SlicedTraceSource>(inner_->clone());
    copy->emitted_ = emitted_;
    return copy;
  }

 private:
  std::unique_ptr<workload::TraceSource> inner_;
  std::uint64_t emitted_ = 0;
};

/// WorkloadSpec wrapper handing a Cpu one slice of a base workload: the
/// base's program image, and a fresh copy of the slice's trace snapshot
/// per make_source() call. The snapshot already carries the plan's
/// trace seed, so make_source ignores its argument.
class SlicedWorkloadSpec final : public workload::WorkloadSpec {
 public:
  SlicedWorkloadSpec(std::shared_ptr<const workload::WorkloadSpec> base,
                     std::shared_ptr<const workload::TraceSource> snapshot)
      : base_(std::move(base)), snapshot_(std::move(snapshot)) {}

  [[nodiscard]] const workload::Program& program() const override {
    return base_->program();
  }
  [[nodiscard]] std::string name() const override { return base_->name(); }
  [[nodiscard]] std::unique_ptr<workload::TraceSource> make_source(
      std::uint64_t /*seed*/) const override {
    return std::make_unique<SlicedTraceSource>(snapshot_->clone());
  }

 private:
  std::shared_ptr<const workload::WorkloadSpec> base_;
  std::shared_ptr<const workload::TraceSource> snapshot_;
};

}  // namespace prestage::sample
