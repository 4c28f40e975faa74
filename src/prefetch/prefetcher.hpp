// Prefetcher interface seen by the fetch engine and the CPU loop.
//
// A prefetcher owns a pre-buffer (prefetch buffer for FDP, prestage buffer
// for CLGP) that the fetch stage probes in parallel with L0/L1 (paper
// §3.1/§3.2.4), plus an engine that scans the decoupling queue and issues
// prefetches. "Prefetch source" statistics follow the paper's Figure 8
// semantics: the original location of a line when a prefetch request is
// processed (PB = already/in-flight in the pre-buffer, il1 = resident in
// L1 — filtered by FDP, copied by CLGP — ul2/Mem = fetched from below).
#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/port.hpp"

namespace prestage::prefetch {

/// Fetch-stage probe result for the pre-buffer.
struct PreBufferProbe {
  bool present = false;   ///< line allocated in the pre-buffer
  Cycle data_ready = 0;   ///< cycle the line's data is (or will be) valid
};

class IPrefetcher {
 public:
  virtual ~IPrefetcher() = default;

  /// Probes the pre-buffer for @p line (no side effects).
  [[nodiscard]] virtual PreBufferProbe probe(Addr line) const = 0;

  /// Pre-buffer read port, or nullptr when there is no pre-buffer. Its
  /// latency is the buffer's read latency (1 for one-cycle buffers; the
  /// pipelined 16-entry buffer takes 2-3, §5).
  [[nodiscard]] virtual mem::LatencyPort* pb_port() = 0;

  /// The fetch stage consumed @p line from the pre-buffer. FDP frees the
  /// entry and promotes the line to L0/L1; CLGP decrements the consumers
  /// counter and leaves the line in place.
  virtual void on_fetch_from_pb(Addr line, Cycle now) = 0;

  /// One cycle of prefetch work: scan the queue, issue prefetches.
  virtual void tick(Cycle now) = 0;

  /// Event-horizon forecast (cpu/cpu.cpp fast-forward): reports the
  /// decision tick(now) acts on, without acting on it. A scheme computes
  /// that decision in one private function both call. It must report
  /// next_event <= now whenever tick would mutate state, name the stall
  /// counter tick bumps once per frozen cycle, and include every
  /// self-timed wakeup (pre-buffer settle times); wakeups delivered by
  /// MemSystem callbacks are covered by that unit's horizon. A scheme
  /// whose tick does nothing returns {kNoCycle, nullptr}.
  [[nodiscard]] virtual IdlePlan idle_plan(Cycle now) = 0;

  /// Branch misprediction recovery. CLGP resets all consumers counters
  /// (paper §3.2.3); FDP has no pre-buffer bookkeeping to undo.
  virtual void on_recovery(Cycle now) = 0;

  /// Observation hook: the fetch stage requested @p line (any source).
  /// Used by demand-triggered schemes (next-N-line prefetching).
  virtual void on_line_request(Addr line, Cycle now) {
    (void)line;
    (void)now;
  }

  /// Figure 8 statistics.
  [[nodiscard]] virtual const SourceBreakdown& prefetch_sources() const = 0;

  /// Total prefetch transfers started (reporting).
  [[nodiscard]] virtual std::uint64_t prefetches() const { return 0; }

  /// CACTI-style storage budget: total SRAM bits of the scheme's private
  /// state (pre-buffer data+tags plus any record tables), accounted with
  /// the cacti/storage.hpp helpers. 0 for schemes that carry none.
  [[nodiscard]] virtual std::uint64_t storage_bits() const { return 0; }

  // --- sampling checkpoints (src/sample/) -------------------------------
  // A scheme may serialize its *learned, committed-control-flow* state —
  // record tables, successor graphs — so a sampled run can carry it from
  // one slice to the next instead of cold-restarting every slice.
  // Transient timing state (in-flight pre-buffer entries, ready cycles)
  // must NOT be saved: it is only meaningful inside one simulation.
  // The default declines, and the sampler falls back to a conservative
  // cold restart (counted in RunResult::sample_cold_starts).

  /// Appends a self-contained snapshot of learned state to @p out and
  /// returns true; returns false (writing nothing) when the scheme does
  /// not support checkpointing.
  [[nodiscard]] virtual bool save_state(std::vector<std::uint8_t>& out) const {
    (void)out;
    return false;
  }

  /// Restores a snapshot produced by save_state() on a same-shape
  /// instance. Returns false (leaving the scheme cold) when unsupported
  /// or when the bytes do not match the scheme's layout.
  [[nodiscard]] virtual bool restore_state(const std::uint8_t* data,
                                           std::size_t size) {
    (void)data;
    (void)size;
    return false;
  }
};

/// The no-prefetch baseline: the fetch stage sees no pre-buffer at all.
class NonePrefetcher final : public IPrefetcher {
 public:
  [[nodiscard]] PreBufferProbe probe(Addr) const override { return {}; }
  [[nodiscard]] mem::LatencyPort* pb_port() override { return nullptr; }
  void on_fetch_from_pb(Addr, Cycle) override {}
  void tick(Cycle) override {}
  [[nodiscard]] IdlePlan idle_plan(Cycle) override {
    return {kNoCycle, nullptr};  // tick is a no-op: never wakes itself
  }
  void on_recovery(Cycle) override {}
  [[nodiscard]] const SourceBreakdown& prefetch_sources() const override {
    return sources_;
  }
  // No learned state: the checkpoint is trivially empty, never a cold
  // restart.
  [[nodiscard]] bool save_state(std::vector<std::uint8_t>&) const override {
    return true;
  }
  [[nodiscard]] bool restore_state(const std::uint8_t*,
                                   std::size_t) override {
    return true;
  }

 private:
  SourceBreakdown sources_;
};

}  // namespace prestage::prefetch
